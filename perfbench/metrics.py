"""Metric names, units, and how each per-layer metric is read off a trace.

A per-layer name is `<layer>.<function>.calls`, `<layer>.<function>.time_s`
or `<layer>.self_s`.  `<function>` is a metric key: the span name itself,
or a short key that `GROUP` assigns to one or more span names.  `time_s`
counts the outermost span of a key only; `self_s` is the time spans of the
layer's module spent outside their child spans.  Every figure is divided
by the items of the traced pass, and times are at reference host speed
(see `hostspeed`).
"""

END_TO_END = (
    ("items_per_s", "1/s"),
    ("item_p50_ms", "ms"),
    ("item_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

GROUP = {
    "exactnum.Cyclotomic.__mul__": "exactnum.mul",
    "exactnum.Cyclotomic.__add__": "exactnum.add",
    "exactnum.Cyclotomic.inverse": "exactnum.inverse",
    "exactnum.Cyclotomic.__hash__": "exactnum.hash",
    "exactnum.Cyclotomic.descend": "exactnum.descend",
    "linalg.Matrix.__mul__": "linalg.mul",
    "linalg.Matrix.rref": "linalg.rref",
    "groups.FiniteGroup.conjugacy": "groups.conjugacy",
    "reps.Representation.validate": "reps.validate",
    "series.GradedSeries.__mul__": "series.mul",
    "groupoids.FiniteGroupoid.product": "groupoids.product",
    "groupoids.GeneralizedMorphism.graph": "groupoids.graph",
    "cli.render_text": "cli.render",
    "cli.render_json": "cli.render",
}

CALLS = (
    "exactnum.mul",
    "exactnum.add",
    "exactnum.inverse",
    "exactnum.hash",
    "exactnum.descend",
    "linalg.mul",
    "linalg.rref",
    "reps.validate",
    "series.mul",
    "groupoids.FiniteGroupoid.validate",
    "groupoids.GeneralizedMorphism.validate",
)

TIMES = (
    "groups.subgroups",
    "groups.conjugacy",
    "reps.validate",
    "reps.induced_character_sum",
    "reps.induced_matrix",
    "complexes.cohomology",
    "charts.eigen_decomposition",
    "series.todd_delocalized",
    "series.invert_unit",
    "series.koszul_ch",
    "series.first_difference",
    "rrg.check_iso_spatial",
    "rrg.pushforward_characters",
    "rrg.check_zero_section",
    "groupoids.FiniteGroupoid.validate",
    "groupoids.GeneralizedMorphism.validate",
    "groupoids.product",
    "groupoids.graph",
    "groupoids.factorize",
    "groupoids.find_isomorphism",
    "groupoids.morita_decompose_inertia",
    "cli.load_scenario",
    "cli.run",
    "cli.render",
)

SELF = (
    "exactnum",
    "linalg",
    "groups",
    "reps",
    "complexes",
    "charts",
    "series",
    "rrg",
    "groupoids",
    "cli",
)

TRACE = (
    ("cli.import_s", "s"),
    ("trace.items_per_s_untraced", "1/s"),
    ("trace.items_per_s_traced", "1/s"),
    ("trace.overhead_x", "x"),
    ("trace.spans_per_item", "count"),
)


def per_layer():
    """(name, unit) of every per-layer metric, in report order."""
    out = [(k + ".calls", "count") for k in CALLS]
    out += [(k + ".time_s", "s") for k in TIMES]
    out += [(m + ".self_s", "s") for m in SELF]
    return out + list(TRACE)


def per_layer_values(profile, items, speed):
    """Per-item figures of every calls/time/self metric of a Profile, with
    times multiplied by `speed` (reference over measured host speed)."""
    out = {}
    for k in CALLS:
        out[k + ".calls"] = profile.calls.get(k, 0) / items
    for k in TIMES:
        out[k + ".time_s"] = profile.time_s.get(k, 0.0) * speed / items
    for m in SELF:
        out[m + ".self_s"] = profile.self_s.get(m, 0.0) * speed / items
    return out
