import numpy as np
import pytest

from symnodes.baselines import baseline_distribution
from symnodes.errors import NodeFileError
from symnodes.geometry import ElementKind
from symnodes.nodefile import (
    config_hash,
    read_node_file,
    write_node_file,
)
from symnodes.symmetry import NodalDistribution


def test_roundtrip_bit_exact(tmp_path):
    dist = baseline_distribution(ElementKind.TRIANGLE, 4, "uniform")
    p1 = tmp_path / "a.nodes"
    p2 = tmp_path / "b.nodes"
    write_node_file(p1, dist, config="cafebabe")
    loaded, header = read_node_file(p1)
    assert header.element is ElementKind.TRIANGLE
    assert header.degree == 4
    assert header.config == "cafebabe"
    np.testing.assert_array_equal(loaded.nodes, dist.nodes)
    write_node_file(p2, loaded, config="cafebabe")
    assert p1.read_bytes() == p2.read_bytes()


def test_bad_count_reports_line(tmp_path):
    dist = baseline_distribution(ElementKind.LINE, 2, "uniform")
    path = tmp_path / "c.nodes"
    write_node_file(path, dist)
    lines = path.read_text().splitlines()
    lines[3] = "# count: 4"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(NodeFileError) as e:
        read_node_file(path)
    assert e.value.line is not None


def test_formula_count_mismatch(tmp_path):
    path = tmp_path / "d.nodes"
    path.write_text(
        "# format: symnodes-nodes/1\n# element: line\n# degree: 2\n"
        "# count: 2\n# source: x\n# config: 0\n-1\n1\n"
    )
    with pytest.raises(NodeFileError) as e:
        read_node_file(path)
    assert "count mismatch" in str(e.value)


def test_node_outside_domain(tmp_path):
    path = tmp_path / "e.nodes"
    path.write_text(
        "# format: symnodes-nodes/1\n# element: line\n# degree: 2\n"
        "# count: 3\n# source: x\n# config: 0\n-1\n0\n1.5\n"
    )
    with pytest.raises(NodeFileError):
        read_node_file(path)


def test_bad_coordinate_line_number(tmp_path):
    path = tmp_path / "f.nodes"
    path.write_text(
        "# format: symnodes-nodes/1\n# element: line\n# degree: 2\n"
        "# count: 3\n# source: x\n# config: 0\n-1\nzap\n1\n"
    )
    with pytest.raises(NodeFileError) as e:
        read_node_file(path)
    assert e.value.line == 8


def test_write_validates():
    bad = NodalDistribution(
        ElementKind.LINE, 2, np.array([[-1.0], [1.0]]), "broken"
    )
    with pytest.raises(ValueError):
        write_node_file("/tmp/never-written.nodes", bad)


def test_config_hash_stable():
    a = config_hash({"x": 1, "y": [1, 2]})
    b = config_hash({"y": [1, 2], "x": 1})
    assert a == b
    assert len(a) == 16
    assert a != config_hash({"x": 2, "y": [1, 2]})


def test_failed_write_removes_its_temporary_file(tmp_path):
    # Renaming onto a directory fails; the temporary file must not stay.
    dist = baseline_distribution(ElementKind.LINE, 2, "uniform")
    taken = tmp_path / "taken"
    taken.mkdir()
    with pytest.raises(OSError):
        write_node_file(taken, dist)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]


_GOOD_HEADER = [
    "# format: symnodes-nodes/1",
    "# element: line",
    "# degree: 2",
    "# count: 3",
    "# source: x",
    "# config: 0",
]


@pytest.mark.parametrize(
    "index, replacement, message",
    [
        (0, "# format: other/1", "line 1: unsupported format 'other/1'"),
        (1, "# element: cube", "line 2: unknown element 'cube'"),
        (2, "# degree: two", "line 3: bad degree 'two'"),
        (2, "# degree: 0", "line 3: bad degree '0'"),
        (2, "# degree: -1", "line 3: bad degree '-1'"),
        (3, "# count: 6.0", "line 4: bad count '6.0'"),
        (
            4,
            "# origin: x",
            "line 5: expected header 'source', got '# origin: x'",
        ),
    ],
)
def test_header_errors_name_their_line(tmp_path, index, replacement, message):
    lines = list(_GOOD_HEADER)
    lines[index] = replacement
    path = tmp_path / "h.nodes"
    path.write_text("\n".join(lines + ["-1", "0", "1"]) + "\n")
    with pytest.raises(NodeFileError) as e:
        read_node_file(path)
    assert str(e.value) == message
    assert e.value.line == index + 1


def test_short_file_reports_its_last_line(tmp_path):
    path = tmp_path / "short.nodes"
    path.write_text("\n".join(_GOOD_HEADER[:3]) + "\n")
    with pytest.raises(NodeFileError) as e:
        read_node_file(path)
    assert str(e.value) == "line 3: file too short for a header"


def test_undecodable_file_is_a_node_file_error(tmp_path):
    path = tmp_path / "binary.nodes"
    path.write_bytes(("\n".join(_GOOD_HEADER) + "\n").encode() + b"\xff\n")
    with pytest.raises(NodeFileError) as e:
        read_node_file(path)
    assert e.value.line == 7
    assert str(e.value) == "line 7: not UTF-8 text: invalid start byte"
