"""groupoid_embeddings: subgroup inclusions as bibundles of one-object groupoids.

An item is one of the 60 subgroup pairs H <= G of subgroup_characters,
seen as pt/H -> pt/G: the comma bibundle of the inclusion functor, its
graph, `classify_embedding`, `factorize` with the round trip through
`compose` and `find_isomorphism`, and `inertia_of_morphism`.  For one
pair per ambient group, the seed's choice among the subgroups of a fixed
order, the item also decomposes the inertia of the coset action of G on
G/H (`morita_decompose_inertia`).  Fixing the order keeps the work per
seed the same: the candidates of one order are conjugate or of equal
size.  No cyclotomic arithmetic runs here.
"""

import random

from wl_subgroups import PAIRS, corpus_pairs

TRACE_STRIDE = 3
MIN_ROUNDS = 2
QUICK_ITEMS = 4
MORITA_ORDER = {"S3": 2, "S4": 3, "D4": 2, "Q8": 4, "C2xC4": 2}


def setup(seed, quick, workdir):
    rng = random.Random(seed)
    items = []
    candidates = {}
    for gname, group, table, elems, sub, emb in corpus_pairs():
        item = {
            "label": "%s/%s" % (gname, ",".join(map(str, elems))),
            "group": group,
            "table": table,
            "elems": frozenset(elems),
            "sub": sub,
            "emb": emb,
            "action": None,
        }
        items.append(item)
        if len(elems) == MORITA_ORDER[gname]:
            candidates.setdefault(gname, []).append(item)
    problems = []
    if len(items) != PAIRS or len(candidates) != len(MORITA_ORDER):
        problems.append("%d pairs, %d groups with Morita candidates"
                        % (len(items), len(candidates)))
    for gname in sorted(candidates):
        item = rng.choice(candidates[gname])
        item["action"] = item["table"].coset_action(sorted(item["elems"]))
    rng.shuffle(items)
    if quick:
        items = [i for i in items if i["action"]][:1] + [
            i for i in items if not i["action"]
        ][: QUICK_ITEMS - 1]
    return {"items": items, "setup_problems": problems}


def items(state):
    return state["items"]


def run(state, item):
    from orbichern import groupoids as gp

    sub, group = item["sub"], item["group"]
    pt_sub = gp.FiniteGroupoid.from_group(sub)
    pt_grp = gp.FiniteGroupoid.from_group(group)
    functor = gp.StrictFunctor(pt_sub, pt_grp, [0], list(item["emb"].mapping))
    bibundle = gp.GeneralizedMorphism.from_functor(functor)
    out = {
        "bibundle_size": bibundle.size,
        "graph_embeds": gp.classify_embedding(bibundle.graph()).embedding,
    }
    first, second = gp.factorize(bibundle)
    out["first_iso_spatial"] = gp.classify_embedding(first).iso_spatial
    out["second_stabilizer_preserving"] = gp.classify_embedding(second).stabilizer_preserving
    out["round_trip"] = gp.find_isomorphism(first.compose(second), bibundle) is not None
    lam = gp.inertia_of_morphism(bibundle)
    out["inertia_shape"] = (lam.src.num_objects, lam.dst.num_objects, lam.size)
    if item["action"] is not None:
        images = item["action"]
        parts = gp.morita_decompose_inertia(group, len(images[0]), images)
        out["morita_parts"] = len(parts)
        out["morita_all_morita"] = all(p.equivalence.is_morita() for p in parts)
    return out


def check(state, item, out):
    """Expected from H and G alone: the comma bibundle of H -> G has |G|
    points, the inertia of pt/H and pt/G has |H| and |G| loops and the
    induced bibundle |H| |G| points (one loop per point and loop), and the
    coset action's inertia has one component per class of G meeting H."""
    label = item["label"]
    n, m = item["table"].size, len(item["elems"])
    problems = []
    for key in ("graph_embeds", "first_iso_spatial", "second_stabilizer_preserving",
                "round_trip"):
        if not out[key]:
            problems.append("%s: %s is false" % (label, key))
    if out["bibundle_size"] != n:
        problems.append("%s: bibundle has %d points, |G| = %d" % (label, out["bibundle_size"], n))
    if out["inertia_shape"] != (m, n, m * n):
        problems.append("%s: inertia bibundle shape %s, expected %s"
                        % (label, out["inertia_shape"], (m, n, m * n)))
    if item["action"] is not None:
        want = item["table"].classes_meeting(item["elems"])
        if out["morita_parts"] != want:
            problems.append("%s: %d Morita components, %d classes of G meet H"
                            % (label, out["morita_parts"], want))
        if not out["morita_all_morita"]:
            problems.append("%s: a Morita component is not an equivalence" % label)
    return problems

