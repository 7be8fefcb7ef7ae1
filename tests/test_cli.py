import csv
import io
import json
import os
import sys

import numpy as np
import pytest

from symnodes.baselines import baseline_distribution
from symnodes.cli import InputError, _parse_element, main
from symnodes.compatibility import FacePrescription, verify_face_match
from symnodes.geometry import ElementKind, contains, reference_element
from symnodes.nodefile import (
    FORMAT_VERSION, config_hash, read_node_file, write_node_file,
)
from symnodes.symmetry import NodalDistribution


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_generate_line_p2(tmp_path, capsys):
    out = tmp_path / "l2.nodes"
    code, stdout, _ = _run(
        capsys,
        "generate", "--element", "line", "--degree", "2",
        "--out", str(out), "--cache-dir", str(tmp_path / "cache"),
    )
    assert code == 0
    assert "lebesgue" in stdout
    dist, header = read_node_file(out)
    np.testing.assert_allclose(
        np.sort(dist.nodes.ravel()), [-1, 0, 1], atol=1e-12
    )
    assert header.source == "optimized"


def test_generate_tri_p1_auto_compat(tmp_path, capsys):
    cache = tmp_path / "cache"
    code, stdout, _ = _run(
        capsys,
        "generate", "--element", "tri", "--degree", "1",
        "--compat", "auto", "--cache-dir", str(cache),
    )
    assert code == 0
    # The line dependency lands in the cache first.
    assert (cache / "line_p1.nodes").exists()
    dist, _ = read_node_file(cache / "tri_p1.nodes")
    got = sorted(map(tuple, np.round(dist.nodes, 12).tolist()))
    assert got == [(-1.0, -1.0), (-1.0, 1.0), (1.0, -1.0)]


def _tri3_off_baseline():
    """A symmetric tri p=3 set whose edge nodes sit at +-0.4, neither the
    uniform (+-1/3) nor the GLL (+-0.447) position."""
    tri = reference_element(ElementKind.TRIANGLE)
    line = np.array([[-1.0], [-0.4], [0.4], [1.0]])
    edges = np.vstack([face.embed(line) for face in tri.faces])
    edges = np.unique(np.round(edges, 14), axis=0)
    nodes = np.vstack([edges, tri.vertices.mean(axis=0)])
    return NodalDistribution(ElementKind.TRIANGLE, 3, nodes, "file")


def test_generate_compat_from_file(tmp_path, capsys):
    face = tmp_path / "tri3.nodes"
    write_node_file(face, _tri3_off_baseline())
    out = tmp_path / "tet3.nodes"
    code, stdout, _ = _run(
        capsys,
        "generate", "--element", "tet", "--degree", "3",
        "--compat", str(face), "--out", str(out),
        "--cache-dir", str(tmp_path / "cache"),
    )
    assert code == 0
    assert "20 nodes" in stdout
    dist, _ = read_node_file(out)
    tri, _ = read_node_file(face)
    elem = reference_element(ElementKind.TETRAHEDRON)
    assert verify_face_match(
        elem, dist, [FacePrescription(ElementKind.TRIANGLE, tri)]
    )


def test_generate_rejects_asymmetric_compat_file(tmp_path, capsys):
    face = tmp_path / "line3.nodes"
    nodes = np.array([[-1.0], [-0.5], [0.3], [1.0]])
    asymmetric = NodalDistribution(ElementKind.LINE, 3, nodes, "file")
    write_node_file(face, asymmetric)
    code, _, err = _run(
        capsys,
        "generate", "--element", "tri", "--degree", "3",
        "--compat", str(face), "--cache-dir", str(tmp_path / "cache"),
    )
    assert code == 2
    assert err.startswith("error: ") and "not symmetric" in err


def test_generate_rejects_compat_file_of_wrong_face_kind(tmp_path, capsys):
    face = tmp_path / "q2.nodes"
    write_node_file(
        face, baseline_distribution(ElementKind.QUADRILATERAL, 2, "uniform")
    )
    code, stdout, err = _run(
        capsys,
        "generate", "--element", "tri", "--degree", "2",
        "--compat", str(face), "--cache-dir", str(tmp_path / "cache"),
    )
    # A user input error, caught before any optimization, with the kinds
    # printed by value.
    assert code == 2
    assert stdout == ""
    assert err.startswith("error: ")
    assert "['quad']" in err and "['line']" in err
    assert "ElementKind" not in err


@pytest.mark.parametrize(
    "kind,degree,face_kind,face_degree",
    [("tet", 4, ElementKind.TRIANGLE, 3), ("tri", 5, ElementKind.LINE, 3)],
)
def test_generate_rejects_compat_file_of_wrong_degree(
    tmp_path, capsys, kind, degree, face_kind, face_degree
):
    face = tmp_path / f"{face_kind.value}{face_degree}.nodes"
    write_node_file(
        face, baseline_distribution(face_kind, face_degree, "uniform")
    )
    code, stdout, err = _run(
        capsys,
        "generate", "--element", kind, "--degree", str(degree),
        "--compat", str(face), "--cache-dir", str(tmp_path / "cache"),
    )
    # A user input error that names the file and both degrees.
    assert code == 2
    assert stdout == ""
    assert err.startswith("error: ")
    assert str(face) in err
    assert f"degree {face_degree}" in err and f"--degree is {degree}" in err


def test_generate_out_directory_is_an_input_error(
    tmp_path, capsys, monkeypatch
):
    # Checked before any optimization, and nothing is left behind.
    import symnodes.cli as cli

    def never(*args, **kwargs):
        raise AssertionError("optimized before checking --out")

    monkeypatch.setattr(cli, "optimize_nodes", never)
    code, stdout, stderr = _run(
        capsys,
        "generate", "--element", "line", "--degree", "2",
        "--out", str(tmp_path), "--cache-dir", str(tmp_path / "cache"),
    )
    assert code == 2
    assert stdout == ""
    assert stderr.splitlines() == [f"error: --out {tmp_path} is a directory"]
    assert list(tmp_path.iterdir()) == []


def test_compare_out_directory_is_an_input_error(
    tmp_path, capsys, monkeypatch
):
    # Checked before any row is computed.
    import symnodes.cli as cli

    def never(*args, **kwargs):
        raise AssertionError("computed a row before checking --out")

    monkeypatch.setattr(cli, "_metric_fields", never)
    code, stdout, stderr = _run(
        capsys,
        "compare", "--element", "line", "--degree-range", "1:1",
        "--dist", "uniform", "--out", str(tmp_path),
        "--cache-dir", str(tmp_path / "cache"),
    )
    assert code == 2
    assert stdout == ""
    assert stderr.splitlines() == [f"error: --out {tmp_path} is a directory"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, never",
    [
        (("generate", "--element", "line", "--degree", "2", "--compat", "off"),
         "optimize_nodes"),
        (("compare", "--element", "line", "--degree-range", "1:1",
          "--dist", "uniform"), "_metric_fields"),
    ],
)
def test_out_ending_in_a_separator_is_an_input_error(
    tmp_path, capsys, monkeypatch, argv, never
):
    # A path ending in a separator names a directory, existing or not: it is
    # rejected before any work, and nothing is made.
    import symnodes.cli as cli

    def fail(*args, **kwargs):
        raise AssertionError("worked before checking --out")

    monkeypatch.setattr(cli, never, fail)
    out = str(tmp_path / "newdir") + os.sep
    code, stdout, stderr = _run(
        capsys, *argv, "--out", out, "--cache-dir", str(tmp_path / "cache")
    )
    assert code == 2
    assert stdout == ""
    assert stderr.splitlines() == [f"error: --out {out} names a directory"]
    assert list(tmp_path.iterdir()) == []


def test_compare_out_in_a_missing_directory(tmp_path, capsys):
    # The directory of a file --out is made, as for generate.
    out = tmp_path / "missing" / "x.csv"
    code, stdout, stderr = _run(
        capsys,
        "compare", "--element", "line", "--degree-range", "1:1",
        "--dist", "uniform", "--out", str(out),
        "--cache-dir", str(tmp_path / "cache"),
    )
    assert code == 0
    assert stdout == "" and stderr == ""
    rows = out.read_text().splitlines()
    assert len(rows) == 2 and rows[1].startswith("line,1,uniform,")


def test_out_under_a_file_is_an_input_error(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("keep\n")
    code, stdout, stderr = _run(
        capsys,
        "compare", "--element", "line", "--degree-range", "1:1",
        "--dist", "uniform", "--out", str(taken / "x.csv"),
        "--cache-dir", str(tmp_path / "cache"),
    )
    assert code == 2 and stdout == ""
    assert stderr.startswith(
        f"error: cannot make the directory of --out {taken / 'x.csv'}: "
    )
    assert taken.read_text() == "keep\n"


def test_tabulate_out_file_is_an_input_error(tmp_path, capsys, monkeypatch):
    # Checked before any element is built, and the file is left as it is.
    import symnodes.cli as cli

    def never(*args, **kwargs):
        raise AssertionError("optimized before checking --out")

    monkeypatch.setattr(cli, "optimize_nodes", never)
    out = tmp_path / "taken"
    out.write_text("keep\n")
    code, stdout, stderr = _run(
        capsys,
        "tabulate", "--element", "line", "--degree-range", "1:2",
        "--out", str(out),
    )
    assert code == 2
    assert stdout == ""
    assert stderr.splitlines() == [f"error: --out {out} is not a directory"]
    assert out.read_text() == "keep\n"
    assert list(tmp_path.iterdir()) == [out]


def test_tabulate_out_under_a_file_is_an_input_error(
    tmp_path, capsys, monkeypatch
):
    # A directory that cannot be made is checked before any element is
    # built: one error line, exit 2, no traceback.
    import symnodes.cli as cli

    def never(*args, **kwargs):
        raise AssertionError("optimized before checking --out")

    monkeypatch.setattr(cli, "optimize_nodes", never)
    taken = tmp_path / "taken"
    taken.write_text("keep\n")
    code, stdout, stderr = _run(
        capsys,
        "tabulate", "--element", "line", "--degree-range", "2",
        "--out", str(taken / "sub"),
    )
    assert code == 2 and stdout == ""
    assert len(stderr.splitlines()) == 1
    assert stderr.startswith(f"error: cannot make --out {taken / 'sub'}: ")
    assert taken.read_text() == "keep\n"


def test_cache_dir_under_a_file_is_one_error_line(tmp_path, capsys):
    # The cache directory is made only once the face distributions are
    # built, so this is not an input error, but it is still one line.
    taken = tmp_path / "taken"
    taken.write_text("keep\n")
    code, stdout, stderr = _run(
        capsys,
        "generate", "--element", "tri", "--degree", "2",
        "--cache-dir", str(taken / "cache"),
        "--out", str(tmp_path / "tri2.nodes"),
    )
    assert code == 1 and stdout == ""
    assert len(stderr.splitlines()) == 1
    assert stderr.startswith("error: ") and str(taken / "cache") in stderr
    assert taken.read_text() == "keep\n"
    assert not (tmp_path / "tri2.nodes").exists()


def test_tabulate_takes_no_cache_dir(tmp_path, capsys):
    # tabulate caches in its --out, so it has no --cache-dir to ignore.
    with pytest.raises(SystemExit) as exit_:
        main(["tabulate", "--element", "line", "--degree-range", "1",
              "--out", str(tmp_path / "out"),
              "--cache-dir", str(tmp_path / "cache")])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --cache-dir" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_generate_rejects_bad_element(tmp_path, capsys):
    code, _, err = _run(
        capsys,
        "generate", "--element", "dodecahedron", "--degree", "2",
        "--cache-dir", str(tmp_path),
    )
    assert code == 2
    assert "unknown element" in err


_ELEMENT_NAMES = {
    "line": ElementKind.LINE,
    "tri": ElementKind.TRIANGLE,
    "triangle": ElementKind.TRIANGLE,
    "quad": ElementKind.QUADRILATERAL,
    "quadrilateral": ElementKind.QUADRILATERAL,
    "tet": ElementKind.TETRAHEDRON,
    "tetrahedron": ElementKind.TETRAHEDRON,
    "hex": ElementKind.HEXAHEDRON,
    "hexahedron": ElementKind.HEXAHEDRON,
    "prism": ElementKind.PRISM,
    "pyramid": ElementKind.PYRAMID,
}


def test_cli_accepts_exactly_the_element_names():
    for name, kind in _ELEMENT_NAMES.items():
        assert _parse_element(name) is kind
        assert _parse_element(name.upper()) is kind
    with pytest.raises(InputError) as e:
        _parse_element("cube")
    assert str(e.value) == (
        f"unknown element 'cube' (choose from {', '.join(sorted(_ELEMENT_NAMES))})"
    )


def test_generate_degree_cap(tmp_path, capsys):
    code, _, err = _run(
        capsys,
        "generate", "--element", "tet", "--degree", "10",
        "--cache-dir", str(tmp_path),
    )
    assert code == 2
    assert "force-degree" in err


def test_evaluate_line_p1(tmp_path, capsys):
    out = tmp_path / "l1.nodes"
    _run(
        capsys,
        "generate", "--element", "line", "--degree", "1",
        "--out", str(out), "--cache-dir", str(tmp_path / "cache"),
    )
    code, stdout, _ = _run(capsys, "evaluate", str(out))
    assert code == 0
    fields = stdout.strip().split(",")
    assert fields[0] == "line" and fields[1] == "1"
    assert float(fields[3]) == pytest.approx(1.0, abs=1e-9)
    assert float(fields[5]) == pytest.approx(3.0, abs=1e-9)


def test_evaluate_count_mismatch(tmp_path, capsys):
    bad = tmp_path / "bad.nodes"
    bad.write_text(
        "# format: symnodes-nodes/1\n# element: line\n# degree: 2\n"
        "# count: 2\n# source: x\n# config: 0\n-1\n1\n"
    )
    code, _, err = _run(capsys, "evaluate", str(bad))
    assert code == 2
    assert "count mismatch" in err


def test_evaluate_node_outside(tmp_path, capsys):
    bad = tmp_path / "bad2.nodes"
    bad.write_text(
        "# format: symnodes-nodes/1\n# element: line\n# degree: 1\n"
        "# count: 2\n# source: x\n# config: 0\n-1\n1.5\n"
    )
    code, _, _ = _run(capsys, "evaluate", str(bad))
    assert code == 2


# Node files that fail before their body is read: a degree the space does
# not have, and bytes that are not UTF-8.
_UNREADABLE = {
    "degree0": (
        b"# format: symnodes-nodes/1\n# element: line\n# degree: 0\n"
        b"# count: 1\n# source: x\n# config: 0\n0\n",
        "line 3: bad degree '0'",
    ),
    "binary": (b"\xff\xfe\x00garbage\n", "line 1: not UTF-8 text"),
}


@pytest.mark.parametrize("name", sorted(_UNREADABLE))
def test_evaluate_unreadable_file_exits_2(tmp_path, capsys, name):
    content, message = _UNREADABLE[name]
    bad = tmp_path / "bad.nodes"
    bad.write_bytes(content)
    code, stdout, err = _run(capsys, "evaluate", str(bad))
    assert code == 2
    assert stdout == ""
    assert err.startswith(f"error: {message}")


@pytest.mark.parametrize("name", sorted(_UNREADABLE))
def test_compare_directory_keeps_rows_beside_an_unreadable_file(
    tmp_path, capsys, name
):
    files = tmp_path / "files"
    files.mkdir()
    write_node_file(
        files / "line_p1.nodes",
        baseline_distribution(ElementKind.LINE, 1, "uniform"),
    )
    (files / "line_p2.nodes").write_bytes(_UNREADABLE[name][0])
    out = tmp_path / "cmp.csv"
    code, _, err = _run(
        capsys,
        "compare", "--element", "line", "--degree-range", "1:2",
        "--dist", f"in={files}", "--out", str(out),
        "--cache-dir", str(tmp_path / "cache"),
    )
    assert code == 0
    rows = out.read_text().splitlines()
    assert len(rows) == 3
    assert rows[1].startswith("line,1,in,1")
    assert rows[2] == "line,2,in,,,,"
    assert f"warning: line p=2 in: {_UNREADABLE[name][1]}" in err


@pytest.mark.parametrize(
    "element, kind, held",
    [
        # Counts differ: 10 nodes where the space has 6.
        ("tri", ElementKind.TRIANGLE, (ElementKind.TRIANGLE, 3)),
        # Counts agree (9 nodes), dimensions do not.
        ("quad", ElementKind.QUADRILATERAL, (ElementKind.LINE, 8)),
    ],
)
def test_compare_directory_blanks_a_file_holding_another_set(
    tmp_path, capsys, element, kind, held
):
    files = tmp_path / "files"
    files.mkdir()
    path = files / f"{kind.value}_p2.nodes"
    write_node_file(path, baseline_distribution(*held, "uniform"))
    out = tmp_path / "cmp.csv"
    code, _, err = _run(
        capsys,
        "compare", "--element", element, "--degree-range", "2:2",
        "--dist", f"in={files}", "--dist", "uniform", "--out", str(out),
        "--resolution", "20",
    )
    assert code == 0
    rows = out.read_text().splitlines()
    assert len(rows) == 3
    assert rows[1] == f"{kind.value},2,in,,,,"
    assert rows[2].startswith(f"{kind.value},2,uniform,")
    assert (
        f"warning: {kind.value} p=2 in: {path} holds {held[0].value} "
        f"p={held[1]}, expected {kind.value} p=2"
    ) in err


@pytest.mark.parametrize("name", sorted(_UNREADABLE))
@pytest.mark.parametrize(
    "argv",
    [
        ("tabulate", "--element", "line", "--degree-range", "2:2",
         "--out", "{cache}"),
        ("compare", "--element", "line", "--degree-range", "2:2",
         "--dist", "optimized", "--cache-dir", "{cache}",
         "--out", "{tmp}/cmp.csv"),
        ("generate", "--element", "tri", "--degree", "2", "--compat", "auto",
         "--cache-dir", "{cache}", "--out", "{tmp}/tri2.nodes"),
    ],
    ids=["tabulate", "compare", "generate"],
)
def test_unreadable_cache_file_is_regenerated(tmp_path, capsys, argv, name):
    cache = tmp_path / "cache"
    cache.mkdir()
    stale = cache / "line_p2.nodes"
    stale.write_bytes(_UNREADABLE[name][0])
    argv = [a.format(cache=cache, tmp=tmp_path) for a in argv]
    code, _, _ = _run(capsys, *argv)
    assert code == 0
    dist, header = read_node_file(stale)
    assert (dist.kind, dist.degree, header.source) == (
        ElementKind.LINE, 2, "optimized"
    )


def test_cache_file_of_an_earlier_solver_is_regenerated(tmp_path, capsys):
    # A file cached before the configuration named its solver carries the
    # hash of the options alone.  Its nodes came from another method, so
    # they are made again, not loaded as face prescriptions.
    cache = tmp_path / "cache"
    cache.mkdir()
    stale = cache / "line_p2.nodes"
    earlier = config_hash({
        "format": FORMAT_VERSION, "element": "line", "degree": 2,
        "compat": "auto", "seed": 0, "kkt_tol": 1e-10, "max_iters": 200,
    })
    write_node_file(
        stale, baseline_distribution(ElementKind.LINE, 2, "uniform"),
        config=earlier,
    )
    code, _, _ = _run(
        capsys, "generate", "--element", "tri", "--degree", "2",
        "--compat", "auto", "--cache-dir", str(cache),
        "--out", str(tmp_path / "tri2.nodes"),
    )
    assert code == 0
    _, header = read_node_file(stale)
    assert header.source == "optimized"
    assert header.config not in ("", earlier)


def test_compare_line(tmp_path, capsys):
    out = tmp_path / "cmp.csv"
    code, _, _ = _run(
        capsys,
        "compare", "--element", "line", "--degree-range", "1:3",
        "--out", str(out), "--cache-dir", str(tmp_path / "cache"),
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("element,degree,distribution")
    assert len(lines) == 1 + 3 * 3  # header + 3 degrees x 3 distributions
    # Optimized never loses to GLL on the Lebesgue constant.
    rows = [l.split(",") for l in lines[1:]]
    by = {(r[1], r[2]): float(r[3]) for r in rows}
    for p in ("1", "2", "3"):
        assert by[(p, "optimized")] <= by[(p, "gll")] * (1 + 1e-3)


def _csv_rows(text):
    return list(csv.reader(io.StringIO(text)))


def test_compare_quotes_a_name_with_a_comma(tmp_path, capsys):
    files = tmp_path / "files"
    files.mkdir()
    write_node_file(
        files / "line_p1.nodes",
        baseline_distribution(ElementKind.LINE, 1, "uniform"),
    )
    code, stdout, _ = _run(
        capsys,
        "compare", "--element", "line", "--degree-range", "1:2",
        "--dist", f"my,set={files}", "--resolution", "20",
    )
    assert code == 0
    header, good, blank = _csv_rows(stdout)
    assert len(good) == len(blank) == len(header) == 7
    assert good[:3] == ["line", "1", "my,set"] and good[3] != ""
    assert blank == ["line", "2", "my,set", "", "", "", ""]
    assert stdout.splitlines()[2] == 'line,2,"my,set",,,,'


def test_compare_empty_name_is_an_input_error(tmp_path, capsys):
    out = tmp_path / "sub" / "cmp.csv"
    code, stdout, err = _run(
        capsys,
        "compare", "--element", "line", "--degree-range", "1:1",
        "--dist", "uniform", "--dist", f"={tmp_path}", "--out", str(out),
        "--cache-dir", str(tmp_path / "cache"),
    )
    assert code == 2
    assert stdout == "" and "empty NAME" in err
    assert not (tmp_path / "sub").exists() and not (tmp_path / "cache").exists()


def test_evaluate_quotes_the_source_of_the_file(tmp_path, capsys):
    path = tmp_path / "l1.nodes"
    dist = baseline_distribution(ElementKind.LINE, 1, "uniform")
    write_node_file(path, dist, source='uniform, "shifted"')
    code, stdout, _ = _run(capsys, "evaluate", str(path), "--resolution", "20")
    assert code == 0
    (row,) = _csv_rows(stdout)
    assert len(row) == 7
    assert row[:3] == ["line", "1", 'uniform, "shifted"']
    assert stdout.startswith('line,1,"uniform, ""shifted""",')


def test_compare_unknown_distribution_warns(tmp_path, capsys):
    code, stdout, err = _run(
        capsys,
        "compare", "--element", "line", "--degree-range", "1:1",
        "--dist", "uniform", "--dist", "nonsense",
        "--cache-dir", str(tmp_path / "cache"),
    )
    assert code == 0
    assert "unknown distribution" in err
    assert "uniform" in stdout


def test_tabulate_deterministic_and_idempotent(tmp_path, capsys):
    args = [
        "tabulate", "--element", "line,tri", "--degree-range", "1:3",
    ]
    out1, out2 = tmp_path / "t1", tmp_path / "t2"
    code1, _, _ = _run(capsys, *args, "--out", str(out1))
    code2, _, _ = _run(capsys, *args, "--out", str(out2))
    assert code1 == 0 and code2 == 0
    names = sorted(os.listdir(out1))
    assert names == sorted(os.listdir(out2))
    assert "manifest.jsonl" in names
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    # Dependencies were built bottom-up into the same directory.
    assert (out1 / "line_p1.nodes").exists()

    # Rerun on an existing directory leaves valid files untouched.
    mtimes = {
        name: os.stat(out1 / name).st_mtime_ns
        for name in names
        if name.endswith(".nodes")
    }
    code3, _, _ = _run(capsys, *args, "--out", str(out1))
    assert code3 == 0
    for name, t in mtimes.items():
        assert os.stat(out1 / name).st_mtime_ns == t

    # A deleted file is regenerated with identical bytes.
    target = "tri_p2.nodes"
    payload = (out1 / target).read_bytes()
    os.unlink(out1 / target)
    code4, _, _ = _run(capsys, *args, "--out", str(out1))
    assert code4 == 0
    assert (out1 / target).read_bytes() == payload

    records = [
        json.loads(line)
        for line in (out1 / "manifest.jsonl").read_text().splitlines()
    ]
    assert all(r["status"] == "ok" for r in records)
    assert len(records) == 6


def test_failed_renames_leave_no_temporary_file(tmp_path, capsys, monkeypatch):
    # Every output file goes through a temporary file and a rename; when
    # the rename fails, the temporary file is removed and no partial
    # output file is left, and the failure is one error line (exit 1).
    replace = os.replace

    def refusing(src, dst):
        if os.path.basename(dst) in ("manifest.jsonl", "cmp.csv"):
            raise OSError("rename refused")
        replace(src, dst)

    monkeypatch.setattr(os, "replace", refusing)
    out = tmp_path / "tab"
    code, _, err = _run(capsys, "tabulate", "--element", "line",
                        "--degree-range", "1:2", "--out", str(out))
    assert (code, err) == (1, "error: rename refused\n")
    assert sorted(os.listdir(out)) == ["line_p1.nodes", "line_p2.nodes"]
    code, _, err = _run(capsys, "compare", "--element", "line",
                        "--degree-range", "1:1", "--dist", "uniform",
                        "--out", str(out / "cmp.csv"))
    assert (code, err) == (1, "error: rename refused\n")
    assert sorted(os.listdir(out)) == ["line_p1.nodes", "line_p2.nodes"]
    assert not list(out.glob("*.tmp*"))


def test_tabulate_records_optimizer_status(tmp_path, capsys):
    # One major iteration is too few at p=3: the row stays "ok" and says
    # how the winning restart ended.  The line elements are optimized as
    # faces of the quads first, and their rows still carry the status.
    args = [
        "tabulate", "--element", "quad,line", "--degree-range", "2:3",
        "--max-iters", "1", "--out", str(tmp_path),
    ]

    def statuses():
        lines = (tmp_path / "manifest.jsonl").read_text().splitlines()
        rows = [json.loads(line) for line in lines]
        assert all(r["status"] == "ok" for r in rows)
        return {
            (r["element"], r["degree"]): r["optimizer_status"] for r in rows
        }

    assert _run(capsys, *args)[0] == 0
    assert statuses() == {
        ("quad", 2): "kkt-converged",
        ("quad", 3): "iteration-limited",
        ("line", 2): "kkt-converged",
        ("line", 3): "iteration-limited",
    }
    # A rerun loads every element from the directory: no optimizer ran.
    assert _run(capsys, *args)[0] == 0
    assert set(statuses().values()) == {None}


def _count_metric_calls(monkeypatch):
    """Record ``(kind, degree)`` of every ``evaluate_metrics`` call, from
    whichever ``symnodes`` module makes it."""
    import symnodes.metrics as metrics

    real = metrics.evaluate_metrics
    calls = []

    def wrapper(space, dist, resolution=None):
        calls.append((space.kind.value, space.degree))
        return real(space, dist, resolution=resolution)

    for name, module in list(sys.modules.items()):
        if name.startswith("symnodes") and (
            getattr(module, "evaluate_metrics", None) is real
        ):
            monkeypatch.setattr(module, "evaluate_metrics", wrapper)
    return calls


def test_tabulate_evaluates_each_element_once(tmp_path, capsys, monkeypatch):
    calls = _count_metric_calls(monkeypatch)
    args = [
        "tabulate", "--element", "line,tri", "--degree-range", "2:3",
        "--out", str(tmp_path),
    ]
    assert _run(capsys, *args)[0] == 0
    assert len(calls) == len(set(calls)) == 4

    def rows():
        # Every field but the optimizer status, which a rerun sets to null.
        lines = (tmp_path / "manifest.jsonl").read_text().splitlines()
        return [
            {
                k: v for k, v in json.loads(line).items()
                if k != "optimizer_status"
            }
            for line in lines
        ]

    fresh = rows()
    # A rerun loads every element from the directory and evaluates it.
    calls.clear()
    assert _run(capsys, *args)[0] == 0
    assert len(calls) == len(set(calls)) == 4
    assert rows() == fresh


def test_tabulate_names_each_kind_once(tmp_path, capsys, monkeypatch):
    # A kind named twice, directly or through an alias, is optimized,
    # evaluated and written to the manifest once, in first-seen order.
    calls = _count_metric_calls(monkeypatch)
    args = [
        "tabulate", "--element", "tri,line,triangle,tri", "--degree-range",
        "2:2", "--out", str(tmp_path),
    ]
    assert _run(capsys, *args)[0] == 0
    assert calls == [("tri", 2), ("line", 2)]
    lines = (tmp_path / "manifest.jsonl").read_text().splitlines()
    assert [json.loads(line)["element"] for line in lines] == ["tri", "line"]


def test_tabulate_evaluates_only_reported_rows(tmp_path, capsys, monkeypatch):
    # The line face of the triangle is optimized too, but has no row.
    calls = _count_metric_calls(monkeypatch)
    args = [
        "tabulate", "--element", "tri", "--degree-range", "2:2",
        "--out", str(tmp_path),
    ]
    assert _run(capsys, *args)[0] == 0
    assert (tmp_path / "line_p2.nodes").exists()
    assert calls == [("tri", 2)]


def test_compare_evaluates_each_optimized_row_once(
    tmp_path, capsys, monkeypatch
):
    # compare hands every row to one per-kind evaluation, each row once.
    import symnodes.cli as cli

    real = cli.evaluate_rows
    calls = []

    def counting(rows, resolution=None):
        calls.append([(s.kind.value, s.degree) for s, _ in rows])
        return real(rows, resolution)

    monkeypatch.setattr(cli, "evaluate_rows", counting)
    out = tmp_path / "compare.csv"
    args = [
        "compare", "--element", "line", "--degree-range", "2:3",
        "--dist", "optimized", "--cache-dir", str(tmp_path / "cache"),
        "--out", str(out),
    ]
    assert _run(capsys, *args)[0] == 0
    assert calls == [[("line", 2), ("line", 3)]]
    fresh = out.read_bytes()
    # A rerun loads the element from the cache and evaluates it.
    calls.clear()
    assert _run(capsys, *args)[0] == 0
    assert calls == [[("line", 2), ("line", 3)]]
    assert out.read_bytes() == fresh


def _write_compare_inputs(directory, kind):
    """Four node files of ``kind`` in ``directory``: p=1 a set that no
    symmetry maps onto itself, p=2 a set that is not unisolvent (on a
    hyperplane x = c, or on the line two nodes 1.5e-8 apart), p=3 a file
    that does not parse and p=4 a file of another element.  p=5 has none."""
    elem = reference_element(kind)
    rng = np.random.default_rng(5)
    uni = baseline_distribution(kind, 1, "uniform")
    centre = elem.vertices.mean(axis=0)
    moved = uni.nodes + rng.uniform(0.0, 0.1, (uni.count, 1)) * (
        centre + 0.05 - uni.nodes
    )
    write_node_file(
        directory / f"{kind.value}_p1.nodes",
        NodalDistribution(kind, 1, moved, "moved"),
    )
    if kind is ElementKind.LINE:
        flat = np.array([[-1.0], [0.0], [1.5e-8]])
    else:
        flat = []
        while len(flat) < baseline_distribution(kind, 2, "uniform").count:
            x = np.concatenate([centre[:1], rng.uniform(-1, 1, elem.dim - 1)])
            if contains(elem, x, 0.0):
                flat.append(x)
    write_node_file(
        directory / f"{kind.value}_p2.nodes",
        NodalDistribution(kind, 2, np.array(flat), "flat"),
    )
    (directory / f"{kind.value}_p3.nodes").write_text("not a node file\n")
    other = ElementKind.TRIANGLE if kind is ElementKind.LINE else ElementKind.LINE
    write_node_file(
        directory / f"{kind.value}_p4.nodes",
        baseline_distribution(other, 4, "uniform"),
    )


def _compare_one_row_at_a_time(kind, degrees, specs):
    """The CSV and the warning lines of ``compare`` with every row built
    and evaluated on its own through ``evaluate_metrics``, in row order."""
    from symnodes.cli import (
        CSV_HEADER, _external_distribution, _metric_fields, _metrics_row,
    )
    from symnodes.basis import FunctionSpace
    from symnodes.errors import SymnodesError
    from symnodes.metrics import evaluate_metrics

    rows, warnings = [CSV_HEADER + "\n"], []
    for p in degrees:
        for spec in specs:
            name, _, directory = spec.partition("=")
            if not directory and spec not in ("uniform", "gll"):
                warnings.append(
                    f"warning: unknown distribution {spec!r}, skipped"
                )
                continue
            try:
                if directory:
                    dist = _external_distribution(directory, kind, p)
                else:
                    dist = baseline_distribution(kind, p, spec)
                report = evaluate_metrics(FunctionSpace(kind, p), dist)
                fields = _metric_fields(report).values()
            except (SymnodesError, OSError) as exc:
                warnings.append(f"warning: {kind.value} p={p} {name}: {exc}")
                fields = [""] * 4
            rows.append(_metrics_row(kind, p, name, fields))
    return "".join(rows), warnings


@pytest.mark.parametrize(
    "kind", ["line", "tri", "quad", "tet", "prism", "pyramid"]
)
def test_compare_rows_equal_rows_evaluated_one_at_a_time(
    tmp_path, capsys, kind
):
    # Every failure a row can meet rides along: an unknown spec, gll where
    # it is not defined, a missing, an unparsable and a foreign file, and a
    # set the interpolator refuses.  The moved set scans the whole lattice
    # alone, the symmetric ones share the chamber's pass.
    kind = ElementKind(kind)
    _write_compare_inputs(tmp_path, kind)
    specs = ["uniform", "gll", "bogus", f"in={tmp_path}"]
    out = tmp_path / "compare.csv"
    code, _, err = _run(
        capsys,
        "compare", "--element", kind.value, "--degree-range", "1:5",
        *(arg for spec in specs for arg in ("--dist", spec)),
        "--out", str(out), "--cache-dir", str(tmp_path / "cache"),
    )
    assert code == 0
    csv_text, warnings = _compare_one_row_at_a_time(kind, range(1, 6), specs)
    assert out.read_text() == csv_text
    assert err.splitlines() == warnings
    assert sum(line.endswith(",,,,") for line in csv_text.splitlines()) >= 4


def test_tabulate_checks_every_cap_before_work(tmp_path, capsys):
    code, _, err = _run(
        capsys,
        "tabulate", "--element", "line,tet", "--degree-range", "10:10",
        "--out", str(tmp_path),
    )
    assert code == 2
    assert "force-degree" in err
    assert not any(name.endswith(".nodes") for name in os.listdir(tmp_path))


def test_generate_quad_p14_passes_face_check(tmp_path, capsys):
    # Restart 0 ends iteration-limited at the lowest objective; jittered
    # restarts converge far higher with nodes on the edges.  Ranking by
    # objective keeps restart 0, whose nodes match the face prescriptions.
    code, _, err = _run(
        capsys,
        "generate", "--element", "quad", "--degree", "14", "--seed", "0",
        "--compat", "auto", "--cache-dir", str(tmp_path / "cache"),
    )
    assert code == 0, err


@pytest.mark.parametrize(
    "argv, option",
    [
        (("generate", "--element", "line", "--degree", "2", "--seed", "-1"),
         "--seed"),
        (("generate", "--element", "line", "--degree", "2",
          "--max-iters", "0"), "--max-iters"),
        (("generate", "--element", "line", "--degree", "2",
          "--kkt-tol", "0"), "--kkt-tol"),
        (("generate", "--element", "line", "--degree", "2",
          "--resolution", "-1"), "--resolution"),
        (("generate", "--element", "line", "--degree", "2",
          "--resolution", "1"), "--resolution"),
        (("compare", "--element", "line", "--degree-range", "2",
          "--seed", "-1"), "--seed"),
        (("tabulate", "--element", "line", "--degree-range", "2",
          "--kkt-tol=-1e-10"), "--kkt-tol"),
        (("tabulate", "--element", "line", "--degree-range", "2",
          "--max-iters", "-3"), "--max-iters"),
        (("generate", "--element", "tri", "--degree", "3",
          "--kkt-tol", "inf"), "--kkt-tol"),
        (("tabulate", "--element", "line", "--degree-range", "2",
          "--kkt-tol", "nan"), "--kkt-tol"),
    ],
)
def test_numeric_option_out_of_range_exits_2(tmp_path, capsys, argv, option):
    out = tmp_path / "out"
    target = ["--out", str(out)] if argv[0] == "tabulate" else [
        "--cache-dir", str(out)
    ]
    code, _, err = _run(capsys, *argv, *target)
    assert code == 2
    assert err.count("\n") == 1 and err.startswith(f"error: {option} ")
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, kind, dim",
    [
        (("compare", "--element", "tri", "--degree-range", "2:2",
          "--dist", "uniform"), "tri", 2),
        (("generate", "--element", "tet", "--degree", "2"), "tet", 3),
        (("tabulate", "--element", "line,pyramid", "--degree-range", "2"),
         "pyramid", 3),
        (("evaluate",), "tri", 2),
    ],
)
def test_resolution_too_large_is_an_input_error(
    tmp_path, capsys, monkeypatch, argv, kind, dim
):
    # compare --element tri --resolution 100000 asked for 12.4 GiB of
    # lattice candidates; it is refused before any lattice or optimization.
    import symnodes.cli as cli
    import symnodes.metrics as metrics

    def never(*args, **kwargs):
        raise AssertionError("worked before checking --resolution")

    monkeypatch.setattr(metrics, "_sample", never)
    monkeypatch.setattr(cli, "optimize_nodes", never)
    out = tmp_path / "out"
    if argv[0] == "evaluate":
        path = tmp_path / "tri_p2.nodes"
        write_node_file(
            path, baseline_distribution(ElementKind.TRIANGLE, 2, "uniform")
        )
        target = [str(path)]
    elif argv[0] == "tabulate":
        target = ["--out", str(out)]
    else:
        target = ["--cache-dir", str(out)]
    code, stdout, err = _run(
        capsys, *argv, *target, "--resolution", "100000"
    )
    assert code == 2 and stdout == ""
    assert err.splitlines() == [
        f"error: --resolution 100000 is too large for {kind}: "
        f"100000^{dim} lattice points exceed {1 << 22}"
    ]
    assert not out.exists()


def test_default_and_tested_resolutions_are_within_the_lattice_limit():
    from symnodes.cli import _check_resolution
    from symnodes.metrics import default_resolution

    for kind in ElementKind:
        dim = reference_element(kind).dim
        _check_resolution(default_resolution(dim), [kind])
        # The largest resolution each dimension takes: 2^22, 2048, 161,
        # above every resolution of the tests (1000, 300 and 60).
        top = {1: 1 << 22, 2: 2048, 3: 161}[dim]
        _check_resolution(top, [kind])
        with pytest.raises(InputError, match="too large"):
            _check_resolution(top + 1, [kind])


@pytest.mark.parametrize("resolution", ["0", "1"])
def test_evaluate_resolution_below_2_exits_2(tmp_path, capsys, resolution):
    path = tmp_path / "l1.nodes"
    write_node_file(
        path, baseline_distribution(ElementKind.LINE, 1, "uniform")
    )
    code, stdout, err = _run(
        capsys, "evaluate", str(path), "--resolution", resolution
    )
    assert code == 2 and stdout == ""
    assert err == f"error: --resolution must be >= 2, got {resolution}\n"
