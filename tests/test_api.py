import inspect

import pytest

import persvec

# Every (public callable, parameter) pair that has a default: the package's
# settable options.  Adding, removing or renaming one changes this set on purpose.
OPTIONS = {
    ("ComplexRoot", "multiplicity"),
    ("ComplexRootList", "roots"),
    ("DatabaseEntry", "diagram"),
    ("DatabaseEntry", "label"),
    ("DatabaseEntry", "vectors"),
    ("LabeledDatabase", "entries"),
    ("PersistenceDiagram", "births"),
    ("PersistenceDiagram", "deaths"),
    ("PersistenceDiagram", "essential_count"),
    ("PersistenceDiagram", "multiplicities"),
    ("PersistencePoint", "multiplicity"),
    ("distance_matrix", "threads"),
    ("distance_matrix", "transform"),
    ("embed_database", "count"),
    ("embed_diagram", "count"),
    ("embed_diagrams", "count"),
    ("embed_roots", "count"),
    ("save_index", "kind"),
    ("serialize_index", "kind"),
    ("synthetic_database", "base_points"),
    ("synthetic_database", "jitter"),
    ("synthetic_database", "noise_band"),
    ("synthetic_database", "noise_points"),
    ("synthetic_database", "seed"),
}


def test_the_public_options_are_pinned():
    found = {
        (name, param.name)
        for name in persvec.__all__
        if callable(obj := getattr(persvec, name))
        for param in inspect.signature(obj).parameters.values()
        if param.default is not inspect.Parameter.empty
    }
    assert found == OPTIONS


# Options removed because no caller set them: the coefficient count is chosen
# once, at embed time; the probe offset is worked out from the values; filters
# always rescale; the exhaustive search has a fixed bound.
@pytest.mark.parametrize(
    "name, keyword",
    [("distance_matrix", "count"), ("two_stage_query", "count"), ("multiplicity0", "eps"),
     ("filter_line", "rescale"), ("filter_plane", "rescale"), ("bottleneck_bruteforce", "cap")],
)
def test_removed_options_are_rejected(name, keyword):
    with pytest.raises(TypeError, match=f"unexpected keyword argument '{keyword}'$"):
        getattr(persvec, name)(**{keyword: None})
