"""Reference post-processing on lane objects, for tests.

This is the point blender as one LaneLine per passing cell: decode every
cell whose masked score passes the threshold (`lane_model.decode_all`),
group by greedy distance NMS on `lane_model.line_distance`, and blend
each group point by point. `point_blend.postprocess` must return the
same lanes (`LaneLine ==`) through its lane table.
"""

import math

from lanenas.lane_model import LaneLine, decode_all, line_distance
from lanenas.point_blend import mask_proposals


def group_lines(lines, group_distance):
    """Greedy NMS grouping: highest-score unassigned line seeds a group
    and absorbs every unassigned line closer than the threshold. The
    seed is each group's first element."""
    order = sorted(range(len(lines)), key=lambda i: (-lines[i].score, i))
    assigned = [False] * len(lines)
    groups = []
    for i in order:
        if assigned[i]:
            continue
        seed = lines[i]
        assigned[i] = True
        group = [seed]
        for j in order:
            if assigned[j]:
                continue
            if line_distance(seed, lines[j]) < group_distance:
                assigned[j] = True
                group.append(lines[j])
        groups.append(group)
    return groups


def blend_group(group, locality_sigma) -> LaneLine:
    """Blend one group into its representative (the seed, highest masked
    score), keeping its score and source. Each representative row keeps
    the member point whose lane has the best score x Gaussian weight of
    the row's distance from the lane's cell centre row (score alone at
    infinite sigma); ties go to the representative, then to the earlier
    member. Every output point comes verbatim from a group member."""
    rep = group[0]
    if len(group) == 1:
        return rep
    s2 = locality_sigma**2
    row = {y: i for i, (_, y) in enumerate(rep.points)}
    out = list(rep.points)
    best_w = [-math.inf] * len(row)
    for line in group:
        cy = line.source.cell_center[1]
        for p in line.points:
            i = row.get(p.y)
            if i is None:
                continue
            dy = p.y - cy
            w = line.score * math.exp(-(dy * dy) / s2)
            if w > best_w[i]:
                out[i], best_w[i] = p, w
    return LaneLine(tuple(out), rep.score, rep.source)


def postprocess(proposals, params):
    """mask -> decode/threshold -> group -> blend, one LaneLine per group."""
    scores = mask_proposals(proposals, params)
    lines = decode_all(proposals, params.score_threshold, scores)
    groups = group_lines(lines, params.group_distance)
    return [blend_group(g, params.locality_sigma) for g in groups]
