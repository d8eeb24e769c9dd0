import argparse
import inspect

import pytest

import persvec
from persvec import cli

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
    ("synthetic_database", "base_points"),
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
# always rescale; the exhaustive search has a fixed bound; the synthetic
# generator's jitter and noise band are fixed.
@pytest.mark.parametrize(
    "name, keyword",
    [("distance_matrix", "count"), ("two_stage_query", "count"), ("multiplicity0", "eps"),
     ("filter_line", "rescale"), ("filter_plane", "rescale"), ("bottleneck_bruteforce", "cap"),
     ("synthetic_database", "jitter"), ("synthetic_database", "noise_band")],
)
def test_removed_options_are_rejected(name, keyword):
    with pytest.raises(TypeError, match=f"unexpected keyword argument '{keyword}'$"):
        getattr(persvec, name)(**{keyword: None})


def test_the_index_kind_is_required():
    db = persvec.LabeledDatabase()
    for call in (lambda: persvec.serialize_index(db), lambda: persvec.save_index(db, "unused.csv")):
        with pytest.raises(TypeError, match="missing 1 required positional argument: 'kind'$"):
            call()


# Every option string of every subcommand: the command line's settable options.
CLI_OPTIONS = {
    "diagram": {"-h", "--help", "--mesh", "--filter", "--out"},
    "embed": {"-h", "--help", "--diagrams", "--transform", "-k", "--out"},
    "dist": {"-h", "--help", "--index", "--diagrams", "--metric", "--threads", "--out"},
    "pr": {"-h", "--help", "--matrix", "--labels", "--out"},
    "query": {"-h", "--help", "--index", "--diagrams", "--id", "--metric", "--candidates"},
    "synth": {"-h", "--help", "--classes", "--per-class", "--base-points", "--noise-points",
              "--seed", "--out"},
}


def test_the_cli_options_are_pinned():
    parser = cli._build_parser()
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    found = {
        name: {s for action in p._actions for s in action.option_strings}
        for name, p in sub.choices.items()
    }
    assert found == CLI_OPTIONS


@pytest.mark.parametrize("flag", ["--jitter", "--noise-band"])
def test_removed_cli_flags_are_rejected(tmp_path, capsys, flag):
    argv = ["synth", "--classes", "2", "--per-class", "2", flag, "0.1", "--out", str(tmp_path / "db")]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == f"error: unrecognized arguments: {flag} 0.1\n"
    assert not (tmp_path / "db").exists()
