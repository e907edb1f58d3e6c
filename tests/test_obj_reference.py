"""Block-wise OBJ parsing against the whole-text parser.

``parse_obj`` checks and converts its text in blocks of about
``_OBJ_CHARS`` characters, each cut just after a newline. The reference is
the parser as it was before: one pass over every line of the whole text,
then one conversion of all tokens. Both must return the same arrays, or
raise the same exception with the same message, on every input; in
particular wherever a line ending, blank line, comment or invalid number
sits next to a block cut.
"""
import importlib
import io

import numpy as np
import pytest

from loopsurf.embed import Mesh, build_mesh, export_obj, parse_obj
from loopsurf.pairspace import Scheme

# the package exports the function ``embed``, which hides the module
EMBED = importlib.import_module("loopsurf.embed")


def _parse_obj_reference(source):
    if hasattr(source, "read"):
        text = source.read()
    elif isinstance(source, (str, bytes)) and b"\n" in (
            source if isinstance(source, bytes) else source.encode("ascii", "ignore")):
        text = source
    else:
        with open(source, "r", encoding="ascii") as fh:
            text = fh.read()
    if isinstance(text, bytes):
        text = text.decode("ascii")
    vtok, ftok = [], []
    for lineno, line in enumerate(text.splitlines(), start=1):
        parts = line.split() or ["#"]       # a blank line reads as a comment
        if parts[0] == "v":
            if len(parts) != 4:
                raise ValueError(f"line {lineno}: malformed vertex line {line!r}")
            vtok += parts[1:]
        elif parts[0] == "f":
            if len(parts) != 4:
                raise ValueError(f"line {lineno}: malformed face line {line!r}")
            ftok += parts[1:]
        elif not parts[0].startswith("#"):
            raise ValueError(f"line {lineno}: unsupported OBJ directive {parts[0]!r}")
    try:
        verts = np.array(vtok, dtype=float)
        tris = np.array(ftok, dtype=np.int64)
        if tris.size and tris.min() == np.iinfo(np.int64).min:
            raise OverflowError("face index - 1 leaves int64")
        tris -= 1
    except (ValueError, OverflowError):
        for parts in map(str.split, text.splitlines()):
            if parts and not parts[0].startswith("#"):
                for p in parts[1:]:
                    (float if parts[0] == "v" else int)(p)
        tris = np.asarray([int(p) - 1 for p in ftok], dtype=np.int64)
    return Mesh(vertices=verts.reshape(-1, 3) if vtok else verts,
                triangles=tris.reshape(-1, 3))


def _outcome(parse, source):
    try:
        mesh = parse(source)
    except Exception as e:
        return type(e), str(e)
    return tuple((a.dtype, a.shape, a.tobytes()) for a in (mesh.vertices, mesh.triangles))


def _assert_same(text, makers=(str, str.encode)):
    for make in makers:
        assert _outcome(parse_obj, make(text)) == _outcome(_parse_obj_reference, make(text))


def _cuts(text, size):
    """The block ends of parse_obj: the first newline at or after each
    block's start plus ``size``."""
    cuts, at = [], 0
    while at < len(text):
        at = text.find("\n", at + size) + 1 or len(text)
        cuts.append(at)
    return cuts


def _decorate_cuts(lines, eol, size, before, after):
    """Join ``lines`` with ``eol``; the line that closes each block gets
    ``before`` ahead of its ending, and each later block opens with the
    ``after`` lines."""
    out, start, pos = [], 0, 0
    for line in lines:
        closes = pos + len(line) + len(eol) - 1 >= start + size
        piece = line + (before if closes else "") + eol
        out.append(piece)
        pos += len(piece)
        if closes:
            start = pos
            for extra in after:
                out.append(extra + eol)
                pos += len(extra) + len(eol)
    return "".join(out)


@pytest.fixture(scope="module")
def torus_lines():
    sink = io.BytesIO()
    export_obj(build_mesh(Scheme.TORUS, 128), sink)
    text = sink.getvalue().decode()
    assert len(_cuts(text, EMBED._OBJ_CHARS)) >= 6       # about 1.6 MB
    return text.splitlines()


def test_multi_block_mesh_matches_reference(torus_lines, tmp_path):
    text = "\n".join(torus_lines) + "\n"
    path = tmp_path / "torus.obj"
    path.write_text(text)
    _assert_same(text, (str, str.encode, io.StringIO, lambda t: io.BytesIO(t.encode()),
                        lambda t: path, lambda t: str(path)))
    _assert_same(text[:-1])                               # no final newline


def test_invalid_float_first_and_malformed_face_last(torus_lines):
    lines = list(torus_lines)
    lines[3] = "v 0 x 0"
    lines[-1] = "f 1 2"
    text = "\n".join(lines) + "\n"
    assert len(_cuts(text, EMBED._OBJ_CHARS)) >= 6
    _assert_same(text)
    with pytest.raises(ValueError, match=f"^line {len(lines)}: malformed face line 'f 1 2'$"):
        parse_obj(text)


def test_first_invalid_number_in_line_order_across_blocks(torus_lines):
    lines = list(torus_lines)
    lines[-5000] = "f 1 2 y"
    lines[-10] = "f 1 2 9.5"
    lines[5] = "v 1 2 3"                                  # valid, first block
    _assert_same("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="invalid literal for int.*'y'"):
        parse_obj("\n".join(lines) + "\n")
    lines[-20000] = "v 0 0 z"
    with pytest.raises(ValueError, match="could not convert string to float: 'z'"):
        parse_obj("\n".join(lines) + "\n")
    _assert_same("\n".join(lines) + "\n")


@pytest.mark.parametrize("eol", ["\n", "\r\n"], ids=["lf", "crlf"])
@pytest.mark.parametrize("before,after", [
    ("", ["", "# comment", "", "#"]),
    ("\x0c", ["\x0c", "  "]),
    (" ", ["\x0cv 1 2 3"]),
    ("\r", ["\r"]),
], ids=["blank-and-comments", "form-feed", "form-feed-vertex", "bare-cr"])
def test_separators_next_to_block_cuts(torus_lines, eol, before, after):
    size = EMBED._OBJ_CHARS
    text = _decorate_cuts(torus_lines, eol, size, before, after)
    cuts = _cuts(text, size)
    assert len(cuts) >= 6
    assert all(text[:c].endswith(before + eol) for c in cuts[:-1])
    _assert_same(text)


def test_min_int_face_index_in_a_late_block(torus_lines):
    lines = list(torus_lines)
    lines[-3] = "f -9223372036854775808 1 2"
    text = "\n".join(lines) + "\n"
    _assert_same(text)
    with pytest.raises(OverflowError):
        parse_obj(text)
    # 2**63 overflows numpy's int64 but its 0-based index does not
    lines[-3] = "f 9223372036854775808 1 2"
    _assert_same("\n".join(lines) + "\n")
    assert parse_obj("\n".join(lines) + "\n").triangles.max() == np.iinfo(np.int64).max


def test_unsupported_directive_in_a_late_block(torus_lines):
    lines = list(torus_lines)
    lines[2] = "v 0 0 nope"
    lines[-7] = "vn 0 0 1"
    _assert_same("\n".join(lines) + "\n")


SMALL = [
    "v 0 0 0\nv 1 0 0\r\nv 0 1 0\n\n# c\nf 1 2 3\x0cf 3 2 1\x0b\nv 1 1 1\rf 1 2 4\n",
    "v 0 x 0\n#\n\nv 1 0 0\r\nf 1 2\nf 1 2 3\n",
    "f 1 2 3\nv 0 0 0\nf 1 2 y\nv 0 x 0\n",
    "v 0 0 0\nf 1 2 -9223372036854775808\nf 1 2 3\n",
    "v 0 0 0\nf 1 2 3\nf 99999999999999999999 1 2\nv 1 1 z\n",
    "v 0 0 0\r\n\r\nvt 0 0\r\nf 1 x 3\r\n",
    "\n\n\n",
    "v 1e999 nan -0\n\x0c\x0c\nf 01 +2 3\n",
    # in the shape export_obj writes, or one byte away from it
    "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\nf 3 2 1\n",
    "f 1 2 3\nv 0 0 0\n",
    "f 007 +2 3\n",
    "f 9223372036854775807 1 2\n",
    "f 99999999999999999999 1 2\n",
    "f 1 2 1e3\n",
    "f 1 2 3f\nf f 1 2\n",
    "v 1E5 -.5 1e-320\n",
    "v 1 2 3 v\nv5 1 2\n",
    "v 1  2 3\nf 1 1 1 \n",
    "vf 1 2 3\n",
    "v . 0 0\nf - 1 2\n",
]


def test_exported_blocks_are_export_shaped(torus_lines):
    # every block of export_obj's text skips the per-line check, and a block
    # of face lines comes back as one int64 array
    text = ("\n".join(torus_lines) + "\n").encode()
    cuts = _cuts(text.decode(), EMBED._OBJ_CHARS)
    for start, end in zip([0] + cuts[:-1], cuts):
        shaped = EMBED._export_shaped(text[start:end])
        assert shaped is not None
        assert not text.startswith(b"f", start) or isinstance(shaped[2], np.ndarray)


@pytest.mark.parametrize("text", SMALL)
def test_every_block_size_on_small_texts(text, monkeypatch):
    want = _outcome(_parse_obj_reference, text)
    for size in range(1, len(text) + 2):
        monkeypatch.setattr(EMBED, "_OBJ_CHARS", size)
        assert _outcome(parse_obj, text) == want, size
