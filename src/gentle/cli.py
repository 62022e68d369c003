"""Command-line interface.

Subcommands: validate, threads, ag, hom, alp, cycles, band, search,
selftest.  Machine output is a single JSON document on stdout with
``--json``; human-readable tables otherwise.  Diagnostics go to stderr.
Exit codes: 0 success, 1 domain error (bad input file or algebra), 2 usage
error, 3 internal assertion failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import alp as alp_mod
from . import exceptional as exc
from .complexes import complex_json, shift, unfold_band, unfold_string
from .hom import HomPair
from .presentation import (GentleValidationError, InternalCheckError,
                           PresentationSyntaxError, load_algebra)
from .threads import aag_cycles, detect_critical_cycles, enumerate_threads
from .words import HomotopyBand, WordError, parse_word


class DomainError(Exception):
    pass


def _load(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise DomainError(f"cannot read {path}: {e.strerror}")
    return load_algebra(text)


def _emit(payload, as_json: bool, renderer) -> None:
    if as_json:
        json.dump(payload, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    else:
        renderer(payload)


def _parse_word_at(a, expr: str):
    """word expression with optional @shift suffix."""
    if "@" in expr:
        body, _, s = expr.rpartition("@")
        try:
            shift_by = int(s)
        except ValueError:
            raise DomainError(f"bad shift suffix in {expr!r}")
        return parse_word(a, body), shift_by
    return parse_word(a, expr), 0


def _entry_to_complex(a, expr: str):
    w, s = _parse_word_at(a, expr)
    base = unfold_band(a, w, 0, 1) if isinstance(w, HomotopyBand) else unfold_string(a, w, 0)
    return shift(base, s)


def _cycle_payload(c: exc.ExceptionalCycle) -> dict:
    cert = c.certificate
    return {
        "n": c.n,
        "entries": [{"word": w.render(), "shift": s} for w, s in c.entries],
        "shifts": list(cert.shifts) if cert.shifts is not None else None,
        "certificate": {"E1": cert.e1, "E2": cert.e2, "E3": cert.e3},
        "calabi_yau": cert.calabi_yau,
    }


# --- subcommands ----------------------------------------------------------------

def cmd_validate(args) -> int:
    a = _load(args.file)
    payload = {
        "name": a.presentation.name,
        "gentle": True,
        "dim": a.dim,
        "vertices": list(a.vertices),
        "arrows": [{"name": x.name, "source": x.source, "target": x.target}
                   for x in a.arrows],
        "relations": [f"{second} {first}" for first, second in a.presentation.relations],
        "sign_components": len(a.signs.components),
    }

    def render(p):
        print(f"{p['name']}: gentle, dim A = {p['dim']}, "
              f"{len(p['vertices'])} vertices, {len(p['arrows'])} arrows, "
              f"{len(p['relations'])} relations")
    _emit(payload, args.json, render)
    return 0


def cmd_threads(args) -> int:
    a = _load(args.file)
    t = enumerate_threads(a)
    cycles = aag_cycles(t)
    payload = {
        "permitted": [x.label() for x in t.permitted],
        "forbidden": [x.label() for x in t.forbidden],
        "phi1": {v.label(): w.label() for v, w in sorted(t.phi1.items(), key=lambda kv: kv[0].label())},
        "phi2": {w.label(): v.label() for w, v in sorted(t.phi2.items(), key=lambda kv: kv[0].label())},
        "critical": sorted(x.label() for x in t.critical_forbidden),
        "critical_cycles": ["".join(reversed(c)) for c in detect_critical_cycles(a)],
        "aag_cycles": [{"n": c.n, "m": c.m,
                        "threads": [x.label() for x in c.permitted]} for c in cycles],
    }

    def render(p):
        print("permitted: " + ", ".join(p["permitted"]))
        print("forbidden: " + ", ".join(p["forbidden"])
              + ("   (critical: " + ", ".join(p["critical"]) + ")" if p["critical"] else ""))
        for v, w in p["phi1"].items():
            print(f"  end-match   {v:>12} -> {w}")
        for w, v in p["phi2"].items():
            print(f"  start-match {w:>12} -> {v}")
        for c in p["aag_cycles"]:
            print(f"cycle (n={c['n']}, m={c['m']}): " + " -> ".join(c["threads"]))
    _emit(payload, args.json, render)
    return 0


def cmd_ag(args) -> int:
    a = _load(args.file)
    orbits = exc.ag_invariants(a)
    payload = {"orbits": [{"n": o.n, "m": o.m,
                           "members": [{"thread": t.label(), "shift": s}
                                       for t, s in o.members]}
                          for o in orbits]}
    if args.dot:
        lines = ["digraph orbits {"]
        for o in orbits:
            for k, (t, s) in enumerate(o.members):
                nt, ns = o.members[(k + 1) % o.n]
                step = (ns - s) if k + 1 < o.n else (o.m - s + ns)
                lines.append(f'  "{t.label()}" -> "{nt.label()}" [label="{step}"];')
        lines.append("}")
        print("\n".join(lines))
        return 0

    def render(p):
        for o in p["orbits"]:
            path = " -> ".join(f"{m['thread']}@{m['shift']}" for m in o["members"])
            print(f"orbit (n={o['n']}, m={o['m']}): {path}")
    _emit(payload, args.json, render)
    return 0


def cmd_hom(args) -> int:
    a = _load(args.file)
    X = _entry_to_complex(a, args.src)
    Y = _entry_to_complex(a, args.dst)
    pair = HomPair(X, Y)
    payload = {
        "from": args.src,
        "to": args.dst,
        "chain_dim": pair.cycle_dim(0),
        "homotopy_dim": pair.image_dim_into(0),
        "hom_dim": pair.hom_dim(0),
    }
    if args.profile:
        payload["profile"] = {str(i): d for i, d in pair.profile().dims}
        payload["window"] = list(pair.window)
    if args.json:
        payload["from_complex"] = complex_json(X)
        payload["to_complex"] = complex_json(Y)

    def render(p):
        print(f"chain maps: {p['chain_dim']}, null-homotopic: {p['homotopy_dim']}, "
              f"hom dimension: {p['hom_dim']}")
        if "profile" in p:
            nz = {i: d for i, d in p["profile"].items() if d}
            print("profile: " + (", ".join(f"[{i}]:{d}" for i, d in sorted(nz.items(), key=lambda kv: int(kv[0]))) or "0"))
    _emit(payload, args.json, render)
    return 0


def cmd_alp(args) -> int:
    a = _load(args.file)
    X = _entry_to_complex(a, args.src)
    Y = _entry_to_complex(a, args.dst)
    basis = alp_mod.alp_basis(X, Y)
    payload = {"count": len(basis), "maps": [
        {"kind": m.kind,
         "components": [{"from": i, "to": j, "path": repr(p)} for i, j, p in m.components]}
        for m in basis]}

    def render(p):
        print(f"{p['count']} basis maps")
        for m in p["maps"]:
            comps = ", ".join(f"{c['from']}->{c['to']} via {c['path']}" for c in m["components"])
            print(f"  {m['kind']}: {comps}")
    _emit(payload, args.json, render)
    return 0


def cmd_cycles(args) -> int:
    a = _load(args.file)
    cycles = exc.classify_exceptional_cycles(a)
    payload = {"cycles": [_cycle_payload(c) for c in cycles]}

    def render(p):
        if not p["cycles"]:
            print("no exceptional cycles among string complexes")
        for c in p["cycles"]:
            entries = ", ".join(f"({e['word']})@{e['shift']}" for e in c["entries"])
            extra = f", Calabi-Yau degree {c['calabi_yau']}" if c["calabi_yau"] is not None else ""
            print(f"{c['n']}-cycle: {entries}{extra}")
            if args.verify:
                cert = c["certificate"]
                print(f"   certificate: E1={cert['E1']} E2={cert['E2']} E3={cert['E3']}"
                      + (f" shifts={c['shifts']}" if c["shifts"] else ""))
    _emit(payload, args.json, render)
    return 0


def cmd_band(args) -> int:
    a = _load(args.file)
    w = parse_word(a, args.band if args.band.strip().startswith("band:")
                   else "band: " + args.band)
    try:
        mu = Fraction(args.scalar)
    except (ValueError, ZeroDivisionError):
        raise DomainError(f"bad scalar {args.scalar!r}")
    if mu == 0:
        raise DomainError("band scalar must be nonzero")
    ok, prof = exc.check_band_spherical(a, w, mu)
    payload = {"band": w.render(), "scalar": str(mu), "spherical": ok,
               "profile": {str(i): d for i, d in prof.dims if d}}

    def render(p):
        verdict = "an exceptional 1-cycle" if p["spherical"] else "NOT an exceptional 1-cycle"
        print(f"{p['band']} with scalar {p['scalar']}: {verdict}")
        print("self-Hom profile: " + (", ".join(
            f"[{i}]:{d}" for i, d in sorted(p["profile"].items(), key=lambda kv: int(kv[0]))) or "0"))
    _emit(payload, args.json, render)
    return 0


def cmd_search(args) -> int:
    a = _load(args.file)
    max_letters, shift_window = exc.search_bounds(a, args.max_letters, args.shift_window)
    cycles = exc.brute_force_search(a, max_letters, shift_window)
    payload = {"bounds": {"max_letters": max_letters, "shift_window": shift_window},
               "cycles": [_cycle_payload(c) for c in cycles]}

    def render(p):
        b = p["bounds"]
        print(f"search bounds: letters <= {b['max_letters']}, window {b['shift_window']}")
        for c in p["cycles"]:
            entries = ", ".join(f"({e['word']})@{e['shift']}" for e in c["entries"])
            print(f"{c['n']}-cycle: {entries}")
    _emit(payload, args.json, render)
    return 0


def cmd_selftest(args) -> int:
    from .randomgen import random_gentle
    from .presentation import enumerate_sign_assignments, with_signs
    if args.count < 1:
        raise DomainError(f"--count must be at least 1, got {args.count}")
    failures = 0

    def check(label: str, fn) -> None:
        nonlocal failures
        try:
            fn()
            print(f"ok   {label}")
        except Exception as e:     # noqa: BLE001 - report and count
            failures += 1
            print(f"FAIL {label}: {e}")

    seeds = [args.seed + i for i in range(args.count)]
    algebras = []
    for s in seeds:
        algebras.append((f"seed {s}", random_gentle(s, max_vertices=5)))

    for label, a in algebras:
        def matchings(a=a):
            t = enumerate_threads(a)
            assert len(t.permitted) == len(t.forbidden) - len(t.critical_forbidden)

        def sign_independence(a=a):
            base = {(c.n, c.m) for c in aag_cycles(enumerate_threads(a))}
            for signs in enumerate_sign_assignments(a)[:8]:
                b = with_signs(a, signs)
                assert {(c.n, c.m) for c in aag_cycles(enumerate_threads(b))} == base

        def orbits_match(a=a):
            exc.ag_invariants(a)     # raises when scan and walk disagree

        check(f"{label}: thread matchings", matchings)
        check(f"{label}: sign independence", sign_independence)
        check(f"{label}: orbit/walk agreement", orbits_match)
    print(f"{'FAILED' if failures else 'passed'}: {len(algebras) * 3 - failures} checks")
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine-readable output")
    common.add_argument("--seed", type=int, default=0, help="seed for randomized self-tests")
    ap = argparse.ArgumentParser(
        prog="gentle",
        description="derived-category combinatorics of gentle algebras",
        parents=[common])
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, help_text, with_file=True):
        p = sub.add_parser(name, help=help_text, parents=[common])
        if with_file:
            p.add_argument("file", help="algebra presentation file (.gentle)")
        return p

    add("validate", "check the gentle axioms").set_defaults(fn=cmd_validate)
    add("threads", "thread tables and walk cycles").set_defaults(fn=cmd_threads)
    p = add("ag", "Serre orbits and AG pairs")
    p.add_argument("--dot", action="store_true", help="emit the orbit graph in DOT format")
    p.set_defaults(fn=cmd_ag)
    p = add("hom", "Hom dimensions between word complexes")
    p.add_argument("--from", dest="src", required=True, metavar="WORD[@SHIFT]")
    p.add_argument("--to", dest="dst", required=True, metavar="WORD[@SHIFT]")
    p.add_argument("--profile", action="store_true", help="full graded profile")
    p.set_defaults(fn=cmd_hom)
    p = add("alp", "combinatorial chain-map basis")
    p.add_argument("--from", dest="src", required=True, metavar="WORD[@SHIFT]")
    p.add_argument("--to", dest="dst", required=True, metavar="WORD[@SHIFT]")
    p.set_defaults(fn=cmd_alp)
    p = add("cycles", "classify exceptional cycles")
    p.add_argument("--verify", action="store_true", help="print certificates")
    p.set_defaults(fn=cmd_cycles)
    p = add("band", "check a band complex for sphericality")
    p.add_argument("--band", required=True, metavar="WORD")
    p.add_argument("--scalar", required=True, metavar="P/Q")
    p.set_defaults(fn=cmd_band)
    p = add("search", "bounded brute-force cycle search")
    p.add_argument("--max-letters", type=int, default=None)
    p.add_argument("--shift-window", type=int, default=None)
    p.set_defaults(fn=cmd_search)
    p = add("selftest", "run property checks on random algebras", with_file=False)
    p.add_argument("--count", type=int, default=5)
    p.set_defaults(fn=cmd_selftest)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (DomainError, PresentationSyntaxError, GentleValidationError,
            WordError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except InternalCheckError as e:
        print(f"internal check failed: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
