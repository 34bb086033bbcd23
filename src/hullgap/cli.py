"""Batch command-line front end.

Four file-based subcommands tie the modules together: ``lip`` evaluates
seminorms and extensions on a metric file, ``rings`` searches for an
annulus family, ``cert`` runs one construct-and-verify pipeline, and
``dk`` sweeps a deficiency profile.  ``_COMMANDS`` names the flags each
command reads; its subparser takes those and ``--out`` only, spelled out in
full, so any other flag and any shortened one is an input error.  The parsed namespace is the run config, and every
output echoes it over the flags of all commands, the unread ones at their
defaults.  Rendering is deterministic byte for byte under a fixed seed, and
exit codes follow a stable contract:

    0  success / all checks passed
    1  a verification or consistency check failed
    2  input error (flags, files, grammar, parameters)
    3  search exhausted without reaching the target
    4  resource guard refused the request
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np

from .errors import (
    CapabilityRefusal,
    InternalInconsistencyError,
    VerificationError,
)
from .spaces import FunctionModule, dim, parse_space
from .lipmetric import (
    FiniteMetricSpace,
    LipFunction,
    check_points,
    geometric_chain,
    integer_ray,
    lip_seminorm,
    load_metric,
    mcshane_extend,
    restricted_seminorm,
)
from .hullgeom import CmParams, DistanceBracket
from .certificates import (
    FunctionModuleSection,
    RingFamily,
    RingSearchExhausted,
    centralizer_construct,
    centralizer_verify,
    extreme_unit_section,
    find_ring_family,
    ivakhno_construct,
    ivakhno_verify,
    module_section_norm,
    validate_ring_family,
)
from .dkprofile import DkProfile, _as_module, constructive_dk_upper, estimate_dk

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_NOT_FOUND = 3
EXIT_REFUSED = 4


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


# every flag of every command, with its argparse keywords
_FLAGS = {
    "space": dict(help="space grammar, e.g. lp(inf,8) or fmod(8, lp(2,1))"),
    "metric": dict(help="metric file path, or chain(q,L) / ray(a,L)"),
    "family": dict(help="ring family file (output of 'rings')"),
    "values": dict(help="function values: inline floats or @file"),
    "mask": dict(help="restriction mask indices, e.g. 0,2,5"),
    "n": dict(type=int, help="tuple length"),
    "eps": dict(type=float, help="mean-norm slack"),
    "alpha": dict(type=float, default=1.0, help="sup-norm cap (default 1)"),
    "k": dict(help="generator budget: '3', '1,2,5', or '1..4'"),
    "m": dict(type=int, help="partition set count"),
    "budget": dict(type=positive_int, default=8, help="search width, at least 1 (default 8)"),
    "seed": dict(type=int, help="rng seed"),
    "resolution": dict(type=float, help="grid step for certified bounds"),
    "out": dict(help="output file (default stdout)"),
    "format": dict(choices=("json", "csv"), help="output format (default csv)"),
}


class _InputError(ValueError):
    """Flag-level problem that argparse cannot express."""


# ---------------------------------------------------------------------------
# shared parsing helpers

_GEN = re.compile(r"^(chain|ray)\(([^,()]+),([^,()]+)\)$")


def _metric_from_arg(text: str) -> FiniteMetricSpace:
    """A metric file path, or an inline generator chain(q,L) / ray(a,L) with an integer L.

    A metric of more than ``MAX_POINTS`` points is refused before it is built.
    """
    mobj = _GEN.match(text.strip())
    if mobj:
        kind, a_raw, b_raw = mobj.groups()
        a = float(a_raw)
        try:
            levels = int(b_raw)
        except ValueError:
            raise _InputError(f"the level count of {kind}(...) must be an integer, got {b_raw!r}")
        check_points(levels)
        if kind == "chain":
            return geometric_chain(a, levels)
        return integer_ray(levels, a)
    return load_metric(text)


def _floats_from_arg(text: str) -> List[float]:
    if text.startswith("@"):
        raw = Path(text[1:]).read_text().split()
    else:
        raw = [t for t in text.replace(",", " ").split() if t]
    try:
        vals = [float(t) for t in raw]
    except ValueError as exc:
        raise _InputError(f"bad numeric value: {exc}")
    if not np.all(np.isfinite(vals)):
        raise _InputError(f"non-finite numeric value in {text!r}")
    return vals


def _ints_from_arg(text: str) -> List[int]:
    try:
        return [int(t) for t in text.replace(",", " ").split() if t]
    except ValueError as exc:
        raise _InputError(f"bad integer value: {exc}")


def _k_range(text: str) -> List[int]:
    """Accept '3', '1,2,5', or '1..4' (inclusive)."""
    if ".." in text:
        lo_raw, hi_raw = text.split("..", 1)
        try:
            lo, hi = int(lo_raw), int(hi_raw)
        except ValueError as exc:
            raise _InputError(f"bad k range {text!r}: {exc}")
        if hi < lo:
            raise _InputError(f"empty k range {text!r}")
        return list(range(lo, hi + 1))
    ks = _ints_from_arg(text)
    if not ks:
        raise _InputError("empty k range")
    return ks


def _single_k(text: str) -> int:
    ks = _k_range(text)
    if len(ks) != 1:
        raise _InputError(f"this command takes a single k, got {text!r}")
    return ks[0]


def _require(cfg: argparse.Namespace, *names: str) -> None:
    for name in names:
        if getattr(cfg, name) is None:
            raise _InputError(f"--{name} is required for '{cfg.command}'")


def _refuse(cfg: argparse.Namespace, route: str, *names: str) -> None:
    """Flags of the route this command did not take are input errors."""
    for name in names:
        if getattr(cfg, name) is not None:
            raise _InputError(f"'{cfg.command}' {route} does not read --{name}")


def _config(cfg: argparse.Namespace) -> dict:
    """The echoed config: every command's flags, this command's values, the others' defaults."""
    return {"command": cfg.command,
            **{name: getattr(cfg, name, kw.get("default")) for name, kw in _FLAGS.items()}}


def _render_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _config_preamble(cfg: argparse.Namespace) -> str:
    doc = _config(cfg)
    return "".join(f"# {key}={json.dumps(doc[key])}\n" for key in sorted(doc))


# ---------------------------------------------------------------------------
# subcommands (each returns rendered output text + exit code)


def cmd_lip(cfg: argparse.Namespace) -> Tuple[str, int]:
    M = _metric_from_arg(cfg.metric)
    vals = _floats_from_arg(cfg.values)
    if len(vals) != M.size:
        raise _InputError(
            f"{len(vals)} function values for a space of {M.size} points"
        )
    mask = tuple(_ints_from_arg(cfg.mask)) if cfg.mask else None
    f = LipFunction(np.array(vals), mask=mask)
    restricted = restricted_seminorm(M, f)
    ext = mcshane_extend(M, f, restricted)
    doc = {
        "config": _config(cfg),
        "points": M.size,
        "seminorm": restricted,
        "extension": {
            "values": [float(x) for x in ext.values],
            "seminorm": lip_seminorm(M, ext),
            "agrees_on_mask": bool(
                np.array_equal(
                    ext.values[f.mask_indices(M)], f.values[f.mask_indices(M)]
                )
            ),
        },
    }
    return _render_json(doc), EXIT_OK


def _not_found(cfg: argparse.Namespace, got: RingSearchExhausted, **route: str) -> Tuple[str, int]:
    """The document of a ring search that ran out of candidate pairs."""
    not_found = {"pairs_examined": got.pairs_examined, "accepted": got.accepted}
    return _render_json({"config": _config(cfg), **route, "not_found": not_found}), EXIT_NOT_FOUND


def cmd_rings(cfg: argparse.Namespace) -> Tuple[str, int]:
    M = _metric_from_arg(cfg.metric)
    got = find_ring_family(M, cfg.eps, _single_k(cfg.k))
    if isinstance(got, RingSearchExhausted):
        return _not_found(cfg, got)
    doc = {
        "config": _config(cfg),
        "family": got.to_jsonable(),
        "size": len(got.entries),
        "validation": validate_ring_family(M, got).to_jsonable(),
    }
    return _render_json(doc), EXIT_OK


def _load_family(path: str) -> RingFamily:
    doc = json.loads(Path(path).read_text())
    payload = doc.get("family", doc) if isinstance(doc, dict) else doc
    try:
        return RingFamily.from_jsonable(payload)
    except (KeyError, TypeError, ValueError) as exc:
        raise _InputError(f"family file {path!r} is malformed: {exc}")


def cmd_cert(cfg: argparse.Namespace) -> Tuple[str, int]:
    if (cfg.space is None) == (cfg.metric is None):
        raise _InputError("'cert' takes exactly one of --space or --metric")
    if cfg.space is not None:
        _refuse(cfg, "with --space", "family", "k")
        _require(cfg, "m")
    else:
        _refuse(cfg, "with --metric", "m")
        _require(cfg, "k")
    # m is --k on the metric route; all are checked before any input is read
    m = CmParams(cfg.n, cfg.eps, m=cfg.m if cfg.space is not None else _single_k(cfg.k)).m
    rng = np.random.default_rng(cfg.seed)

    if cfg.space is not None:
        module = _as_module(parse_space(cfg.space))
        fd = dim(module.fiber)
        e = extreme_unit_section(module)
        z = []
        for _ in range(cfg.n):
            sec = FunctionModuleSection(rng.standard_normal((module.base_size, fd)))
            s = module_section_norm(module, sec)
            z.append(FunctionModuleSection(sec.values / s) if s > 1.0 else sec)
        sets = [[j] for j in range(m)]
        constructed = centralizer_construct(module, z, e, sets)
        rep = centralizer_verify(module, z, constructed, m)
        doc = {
            "config": _config(cfg),
            "route": "partition",
            "report": rep.to_jsonable(),
        }
        return _render_json(doc), EXIT_OK if rep.passed else EXIT_FAIL

    M = _metric_from_arg(cfg.metric)
    if cfg.family is not None:
        family = _load_family(cfg.family)
        family.check_epsilon(cfg.eps)
    else:
        got = find_ring_family(M, cfg.eps, m)
        if isinstance(got, RingSearchExhausted):
            return _not_found(cfg, got, route="annulus")
        family = got
    if m > len(family.entries):
        raise _InputError(f"k={m} exceeds the family size {len(family.entries)}")
    validation = validate_ring_family(M, family)
    doc = {
        "config": _config(cfg),
        "route": "annulus",
        "family_validation": validation.to_jsonable(),
        "report": None,
    }
    if not validation.passed:
        return _render_json(doc), EXIT_FAIL
    z = []
    for _ in range(cfg.n):
        v = rng.standard_normal(M.size)
        s = lip_seminorm(M, LipFunction(v))
        z.append(LipFunction(v / s if s > 0 else v))
    constructed = ivakhno_construct(M, z, family, cfg.eps)
    rep = ivakhno_verify(M, z, constructed, m, cfg.eps, family)
    doc["report"] = rep.to_jsonable()
    return _render_json(doc), EXIT_OK if rep.passed else EXIT_FAIL


def _ceiling_profile(cfg: argparse.Namespace, module: FunctionModule, ks: List[int]) -> DkProfile:
    ceilings = constructive_dk_upper(
        module, cfg.n, cfg.eps, ks, panel=max(4, cfg.budget), seed=cfg.seed
    )
    entries = []
    for k in sorted(ceilings):
        entries.append(
            (
                k,
                DistanceBracket(
                    0.0,
                    ceilings[k],
                    lower_method="none",
                    upper_method="partition-ceiling",
                    meta={"witness_id": "", "method": "partition-ceiling"},
                ),
            )
        )
    return DkProfile(
        n=cfg.n, epsilon=cfg.eps, alpha=cfg.alpha, seed=cfg.seed,
        budget=cfg.budget, entries=tuple(entries),
    )


def cmd_dk(cfg: argparse.Namespace) -> Tuple[str, int]:
    space = parse_space(cfg.space)
    ks = _k_range(cfg.k)
    CmParams(cfg.n, cfg.eps, cfg.alpha)  # both routes check n, eps and alpha alike
    if isinstance(space, FunctionModule):
        _refuse(cfg, "on a function module", "resolution")
        if cfg.alpha < 1.0:
            # the partition panel verifies the alpha = 1 construction, and
            # its ceilings carry over to alpha >= 1 only (the hull grows)
            raise _InputError(
                f"the partition-ceiling route needs --alpha >= 1, got {cfg.alpha}"
            )
        route = "partition-ceiling"
        prof = _ceiling_profile(cfg, space, ks)
    else:
        route = "adversary-sweep"
        prof = estimate_dk(
            space, cfg.n, cfg.eps, alpha=cfg.alpha, k_range=ks,
            budget=cfg.budget, seed=cfg.seed, resolution=cfg.resolution,
        )
    if cfg.format != "json":
        return _config_preamble(cfg) + prof.to_csv(), EXIT_OK
    doc = {
        "config": _config(cfg),
        "route": route,
        "profile": prof.to_jsonable(),
    }
    return _render_json(doc), EXIT_OK


# command: (function, help, required flags, optional flags); each also takes --out
_COMMANDS = {
    "lip": (cmd_lip, "seminorm and extension of a function on a metric file",
            ("metric", "values"), ("mask",)),
    "rings": (cmd_rings, "search a metric for a family of disjoint annuli",
              ("metric", "eps", "k"), ()),
    "cert": (cmd_cert, "run one construct-and-verify certificate pipeline",
             ("n", "eps", "seed"), ("space", "metric", "family", "m", "k")),
    "dk": (cmd_dk, "sweep a deficiency profile over a range of k",
           ("space", "n", "eps", "k", "seed"), ("alpha", "budget", "resolution", "format")),
}


# ---------------------------------------------------------------------------
# argument plumbing


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="hullgap",
        description="deficiency profiles, Lipschitz certificates, ring search",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, required, optional) in _COMMANDS.items():
        # no prefix matching: a shortened or mistyped flag is an input error
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        for flag in required:
            p.add_argument(f"--{flag}", required=True, **_FLAGS[flag])
        for flag in optional + ("out",):
            p.add_argument(f"--{flag}", **_FLAGS[flag])
    return parser


def _emit(cfg: argparse.Namespace, text: str, code: int) -> int:
    """Write the output to --out, or to stdout; an unwritable --out is an input error."""
    if not cfg.out:
        sys.stdout.write(text)
        return code
    try:
        Path(cfg.out).write_text(text)
    except OSError as exc:
        sys.stderr.write(f"hullgap {cfg.command}: cannot write --out {cfg.out!r}: {exc}\n")
        return EXIT_INPUT
    return code


def main(argv: Optional[List[str]] = None) -> int:
    try:
        cfg = _build_parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if isinstance(code, int) else EXIT_INPUT
    try:
        text, code = _COMMANDS[cfg.command][0](cfg)
    except CapabilityRefusal as exc:
        doc = {
            "config": _config(cfg),
            "refusal": str(exc),
            "report": exc.report,
        }
        return _emit(cfg, _render_json(doc), EXIT_REFUSED)
    except (VerificationError, InternalInconsistencyError) as exc:
        sys.stderr.write(f"hullgap {cfg.command}: {exc}\n")
        return EXIT_FAIL
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"hullgap {cfg.command}: {exc}\n")
        return EXIT_INPUT
    return _emit(cfg, text, code)


if __name__ == "__main__":
    sys.exit(main())
