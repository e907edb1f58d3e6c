"""Benchmark workloads: inputs made from a seed, one timed pass, checks.

`loopsurf` is passed in as a module object (``ls``) rather than imported
here, because set-up re-imports the package on every repetition and the
inputs must use the classes of the final import.
"""
from __future__ import annotations

import io
import json
import string
from dataclasses import dataclass, field, replace

import numpy as np

from oracle import (BOUNDED_WORDS, CHECK_TOL, CLOSED_WORDS, MIN_SEP, TOL, WORD_OF_MESH,
                    check_mesh, check_witness, check_word_agrees_with_mesh,
                    closed_surface, count_bad_round_trips, count_bad_words)


@dataclass(frozen=True)
class Query:
    """One rectangle search: curve kind, its parameters (vertices for a
    polyline) and grid size."""

    name: str
    kind: str
    params: tuple
    grid: int


# first-witness searches on well-conditioned curves at large grids, where the
# per-sample loop and its early exit dominate; l-hexagon stays although
# verify_rectangle rejects its witness (its 65,536-point resample cuts the
# (3, 1) corner), so verified_frac shows that false negative
RECT_FIRST = (
    Query("circle", "circle", (1.0,), 256),
    Query("ellipse-2x1", "ellipse", (2.0, 1.0), 256),
    Query("superellipse-2x1p4", "superellipse", (2.0, 1.0, 4.0), 128),
    Query("triangle", "polyline", ((0.0, 0.0), (4.0, 0.0), (1.0, 3.0)), 256),
    Query("l-hexagon", "polyline", ((0.0, 0.0), (3.0, 0.0), (3.0, 1.0), (1.0, 1.0),
                                    (1.0, 3.0), (0.0, 3.0)), 128),
)
QUERY_NAMES = tuple(q.name for q in RECT_FIRST)

SCHEMES = ("torus", "pinched-sphere", "mobius")
METRIC_MESH_N = 256     # resolution the per-layer embed metrics report


@dataclass(frozen=True)
class Sizes:
    """Input sizes; SMOKE holds the smallest ones, for self-tests."""

    rect_grid_cap: int | None
    smoke_queries: tuple | None
    mesh_sizes: tuple
    pairs_per_scheme: int
    words: int
    cli_mesh_n: int
    cli_rect_grid: int


FULL = Sizes(None, None, (64, METRIC_MESH_N), 5000, 1000, 64, 64)
SMOKE = Sizes(32, ("circle", "triangle"), (8,), 100, 50, 8, 16)


def rect_queries(sizes):
    queries = RECT_FIRST
    if sizes.smoke_queries is not None:
        queries = tuple(q for q in queries if q.name in sizes.smoke_queries)
    if sizes.rect_grid_cap is not None:
        queries = tuple(replace(q, grid=min(q.grid, sizes.rect_grid_cap)) for q in queries)
    return queries


def build_curve(ls, query):
    if query.kind == "polyline":
        return ls.load_polyline(query.params)
    return ls.make_preset(query.kind, query.params)


def _shift_labels(word, offset):
    return "".join(chr(ord(c) + offset) for c in word)


def random_word(rng):
    """A random edge word with its known surface, as (text, expected).

    The word is a catalog word with free edges, or a connected sum (a
    concatenation with disjoint labels) of up to three closed normal forms;
    it is then relabelled, rotated and possibly read backwards, none of
    which changes the surface."""
    if rng.random() < 0.25:
        text = sorted(BOUNDED_WORDS)[int(rng.integers(len(BOUNDED_WORDS)))]
        expected = BOUNDED_WORDS[text]
    else:
        picks = rng.integers(len(CLOSED_WORDS), size=int(rng.integers(1, 4)))
        pieces = [CLOSED_WORDS[i] for i in picks]
        text = "".join(_shift_labels(w, 4 * i) for i, (w, _, _) in enumerate(pieces))
        chi = sum(c for _, c, _ in pieces) - 2 * (len(pieces) - 1)
        expected = closed_surface(chi, all(o for _, _, o in pieces))
    labels = sorted(set(text.lower()))
    fresh = rng.choice(list(string.ascii_lowercase), size=len(labels), replace=False)
    mapping = dict(zip(labels, fresh))
    text = "".join(mapping[c] if c.islower() else mapping[c.lower()].upper() for c in text)
    cut = int(rng.integers(len(text)))
    text = text[cut:] + text[:cut]
    if rng.random() < 0.5:
        text = text[::-1].swapcase()
    return text, expected


@dataclass
class Inputs:
    """Everything one pass needs; built by `setup`."""

    ls: object
    workload: str
    sizes: Sizes
    queries: tuple = ()
    curves: list = field(default_factory=list)
    pairs: dict = field(default_factory=dict)
    words: list = field(default_factory=list)
    word_expected: list = field(default_factory=list)
    cli: list = field(default_factory=list)
    obj_path: str = ""
    cli_expected: dict | None = None


def setup(ls, workload, seed, sizes, tracer, group, obj_path):
    """Build the workload's inputs from the seed."""
    inp = Inputs(ls, workload, sizes, obj_path=obj_path)
    if workload != "spaces":
        inp.queries = rect_queries(sizes)
        for q in inp.queries:
            with tracer.span("curves.build", group):
                inp.curves.append(build_curve(ls, q))
        return inp
    rng = np.random.default_rng(seed)
    for scheme in SCHEMES:
        xy = rng.random((sizes.pairs_per_scheme, 2))
        ordered = scheme != "mobius"
        inp.pairs[scheme] = [ls.PairOnLoop(float(x), float(y), ordered=ordered) for x, y in xy]
    inp.words = [WORD_OF_MESH["torus"], WORD_OF_MESH["mobius"]]
    inp.word_expected = [closed_surface(0, True), BOUNDED_WORDS["aac"]]
    for _ in range(sizes.words):
        text, expected = random_word(rng)
        inp.words.append(text)
        inp.word_expected.append(expected)
    rq = Query("cli-circle", "circle", (1.0,), sizes.cli_rect_grid)
    inp.queries = (rq,)
    with tracer.span("curves.build", group):
        inp.curves = [build_curve(ls, rq)]
    inp.cli = [
        ("classify", ["classify", "abAB"]),
        ("encode", ["encode", "mobius", "0.3", "0.7"]),
        ("decode", ["decode", "torus", "0.25", "0.5"]),
        ("mesh", ["mesh", "torus", "--resolution", str(sizes.cli_mesh_n), "--out", obj_path]),
        ("rect", ["rect", "--curve", "circle:1", "--grid", str(rq.grid),
                  "--tol", repr(TOL), "--min-sep", repr(MIN_SEP)]),
    ]
    return inp


# ----------------------------------------------------------------- passes

def rect_pass(inp, tracer, curves):
    """find_rectangle then verify_rectangle on every query."""
    ls = inp.ls
    out = []
    for q, curve in zip(inp.queries, curves):
        result = report = error = None
        with tracer.span("inscribed.query", q.name):
            try:
                with tracer.span("inscribed.find_rectangle", q.name):
                    result = ls.find_rectangle(curve, grid_n=q.grid, tol=TOL,
                                               min_separation=MIN_SEP)
                if isinstance(result, ls.RectangleWitness):
                    with tracer.span("inscribed.verify_rectangle", q.name):
                        report = ls.verify_rectangle(curve, result, CHECK_TOL)
            except Exception as e:  # a raising call is a failed operation
                error = repr(e)
        out.append((q, result, report, error))
    return out


def spaces_pass(inp, tracer, curves):
    """Mesh pipelines, pair round trips, word classification, CLI calls."""
    ls = inp.ls
    meshes = []
    for scheme in ls.Scheme:
        for n in inp.sizes.mesh_sizes:
            group = f"mesh.{scheme.value}.{n}"
            try:
                with tracer.span("embed.build_mesh", group):
                    mesh = ls.build_mesh(scheme, n)
                with tracer.span("embed.mesh_invariants", group):
                    inv = ls.mesh_invariants(mesh)
                with tracer.span("embed.export_obj", group):
                    sink = io.BytesIO()
                    ls.export_obj(mesh, sink)
                    data = sink.getvalue()
                with tracer.span("embed.parse_obj", group):
                    parsed = ls.parse_obj(data)
                with tracer.span("embed.mesh_invariants", group):
                    parsed_inv = ls.mesh_invariants(parsed)
                meshes.append((scheme.value, n, inv, parsed_inv, len(data), None))
            except Exception as e:
                meshes.append((scheme.value, n, None, None, 0, repr(e)))

    trips = {}
    for scheme in ls.Scheme:
        back = []
        pairs = inp.pairs[scheme.value]
        with tracer.span("pairspace.roundtrip", scheme.value, calls=len(pairs)):
            for p in pairs:
                try:
                    back.append(ls.decode(ls.encode_pair(scheme, p)))
                except Exception as e:
                    back.append(e)
        trips[scheme.value] = back

    classes = []
    with tracer.span("edgeword.classify", "words", calls=len(inp.words)):
        for text in inp.words:
            try:
                classes.append(ls.classify(ls.parse(text)))
            except Exception as e:
                classes.append(e)

    cli = {}
    for name, argv in inp.cli:
        sout, serr = io.StringIO(), io.StringIO()
        with tracer.span("cli.run", f"cli.{name}"):
            code = ls.cli.run(argv, out=sout, err=serr)
        cli[name] = (code, sout.getvalue(), serr.getvalue())

    # the CLI's rectangle goes through the verifier like every witness
    witness = report = None
    code, text, _ = cli["rect"]
    try:
        payload = json.loads(text) if code == 0 else {}
        if payload.get("found"):
            witness = ls.RectangleWitness(
                pairs=tuple(tuple(p) for p in payload["pairs"]),
                vertices=np.asarray(payload["vertices"], dtype=float),
                midpoint_residual=payload["midpoint_residual"],
                length_residual=payload["length_residual"])
            with tracer.span("inscribed.verify_rectangle", "cli.rect"):
                report = ls.verify_rectangle(curves[0], witness, CHECK_TOL)
    except Exception as e:
        witness = repr(e)
    return meshes, trips, classes, cli, (witness, report)


def run_pass(inp, tracer, curves):
    if inp.workload == "spaces":
        return spaces_pass(inp, tracer, curves)
    return rect_pass(inp, tracer, curves)


# ----------------------------------------------------------------- checks

@dataclass
class PassResult:
    """Checked outcome of one pass; `fingerprint` holds the package's
    outputs, to be compared bit for bit across passes, traced and untraced."""

    ops: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    queries: int = 0
    found: int = 0
    witnesses: int = 0
    verified: int = 0
    unverified: list = field(default_factory=list)
    obj_bytes: dict = field(default_factory=dict)
    cli_bytes: int = 0
    fingerprint: list = field(default_factory=list)

    def fail(self, message, count=1):
        self.failed += count
        self.failures.append(message)

    def add_witness(self, query, witness, report):
        self.found += 1
        self.witnesses += 1
        self.verified += bool(report.passes)
        if not report.passes:
            self.unverified.append((query.name, max(report.vertex_curve_distances),
                                    report.midpoint_residual, report.length_residual))
        problems = check_witness(query, witness)
        if problems:
            self.fail(f"{query.name}: " + "; ".join(problems))
        self.fingerprint.append((query.name, witness.pairs, witness.vertices.tobytes(),
                                 witness.midpoint_residual, witness.length_residual,
                                 report.passes))


def evaluate(inp, outputs):
    if inp.workload == "spaces":
        return _evaluate_spaces(inp, outputs)
    res = PassResult()
    for q, result, report, error in outputs:
        res.ops += 1
        res.queries += 1
        if error is not None:
            res.fail(f"{q.name}: raised {error}")
            res.fingerprint.append((q.name, error))
        elif not isinstance(result, inp.ls.RectangleWitness):
            res.fail(f"{q.name}: {result}")
            res.fingerprint.append((q.name, repr(result)))
        else:
            res.add_witness(q, result, report)
    return res


def direct_cli_results(inp):
    """What each CLI command must print (and write), from direct calls."""
    ls = inp.ls
    mobius, torus = ls.Scheme.MOBIUS_UNORDERED, ls.Scheme.TORUS
    q = ls.canonicalize(mobius, 0.3, 0.7)
    encoded = q.to_json()
    encoded["embedding"] = [float(c) for c in ls.embed(mobius, q)]
    dq = ls.quotient_point(torus, 0.25, 0.5)
    pair = ls.decode(dq)
    mesh = ls.build_mesh(torus, inp.sizes.cli_mesh_n)
    sink = io.BytesIO()
    ls.export_obj(mesh, sink)
    rq = inp.queries[0]
    rect = ls.find_rectangle(ls.from_spec("circle:1"), grid_n=rq.grid, tol=TOL,
                             min_separation=MIN_SEP)
    rect_json = rect.to_json()
    if isinstance(rect, ls.RectangleWitness):
        rect_json["found"] = True
    expected = {
        "classify": ls.classify(ls.parse("abAB")).to_json(),
        "encode": encoded,
        "decode": {"scheme": "torus", "pair": [pair.a, pair.b], "ordered": pair.ordered,
                   "pole": dq.is_pole},
        "mesh": ls.mesh_invariants(mesh).to_json(),
        "rect": rect_json,
    }
    expected = {k: json.loads(json.dumps(v)) for k, v in expected.items()}
    return expected, sink.getvalue()


def _evaluate_spaces(inp, outputs):
    meshes, trips, classes, cli, (witness, report) = outputs
    ls = inp.ls
    res = PassResult()
    for scheme, n, inv, parsed_inv, nbytes, error in meshes:
        res.ops += 1
        if error is not None:
            res.fail(f"mesh {scheme} n={n}: raised {error}")
            continue
        problems = check_mesh(scheme, inv, parsed_inv)
        if scheme in WORD_OF_MESH:
            surface = classes[list(WORD_OF_MESH).index(scheme)]
            if hasattr(surface, "euler_char"):
                problems += check_word_agrees_with_mesh(scheme, inv, surface)
        if problems:
            res.fail(f"mesh {scheme} n={n}: " + "; ".join(problems))
        res.obj_bytes[(scheme, n)] = nbytes
        res.fingerprint.append((scheme, n, inv, parsed_inv, nbytes))

    for scheme in SCHEMES:
        pairs, back = inp.pairs[scheme], trips[scheme]
        res.ops += len(pairs)
        bad = count_bad_round_trips(ls.quotient_distance, ls.Scheme(scheme), pairs, back)
        if bad:
            res.fail(f"pairs {scheme}: {bad} of {len(pairs)} round trips wrong", bad)
        res.fingerprint.append(tuple((d.a, d.b, d.ordered) if hasattr(d, "ordered") else repr(d)
                                     for d in back))

    res.ops += len(inp.words)
    bad = count_bad_words(inp.word_expected, classes)
    if bad:
        res.fail(f"words: {bad} of {len(inp.words)} classified wrong", bad)
    res.fingerprint.append(tuple(classes))

    if inp.cli_expected is None:
        inp.cli_expected = direct_cli_results(inp)
    expected, obj_bytes = inp.cli_expected
    for name, (code, text, err) in cli.items():
        res.ops += 1
        res.cli_bytes += len(text.encode())
        try:
            got = json.loads(text)
        except ValueError:
            got = None
        if code != 0 or got != expected[name]:
            res.fail(f"cli {name}: exit {code}, printed {text.strip()!r} {err.strip()!r}")
        res.fingerprint.append((name, code, text))
    with open(inp.obj_path, "rb") as fh:
        written = fh.read()
    res.cli_bytes += len(written)
    if written != obj_bytes:
        res.fail("cli mesh: OBJ file differs from export_obj of the same mesh")

    res.queries += 1
    if isinstance(witness, str):
        res.fail(f"cli rect witness: raised {witness}")
    elif witness is None:
        res.fail("cli rect: no witness")
    else:
        res.add_witness(inp.queries[0], witness, report)
    return res
