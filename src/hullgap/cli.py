"""Batch command-line front end.

Four file-based subcommands tie the modules together: ``lip`` evaluates
seminorms and extensions on a metric file, ``rings`` searches for an
annulus family, ``cert`` runs one construct-and-verify pipeline, and
``dk`` sweeps a deficiency profile.  Every output embeds the full run
configuration, rendering is deterministic byte for byte under a fixed
seed, and exit codes follow a stable contract:

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
from dataclasses import dataclass, fields
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


@dataclass(frozen=True)
class RunConfig:
    """Complete flag set of one invocation, echoed into every output."""

    command: str
    space: Optional[str] = None
    metric: Optional[str] = None
    family: Optional[str] = None
    values: Optional[str] = None
    mask: Optional[str] = None
    n: Optional[int] = None
    eps: Optional[float] = None
    alpha: float = 1.0
    k: Optional[str] = None
    m: Optional[int] = None
    budget: int = 8
    seed: Optional[int] = None
    resolution: Optional[float] = None
    out: Optional[str] = None
    format: Optional[str] = None

    def to_jsonable(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


class _InputError(ValueError):
    """Flag-level problem that argparse cannot express."""


# ---------------------------------------------------------------------------
# shared parsing helpers

_GEN = re.compile(r"^(chain|ray)\(([^,()]+),([^,()]+)\)$")


def _metric_from_arg(text: str) -> FiniteMetricSpace:
    """A metric file path, or an inline generator chain(q,L) / ray(a,L)."""
    mobj = _GEN.match(text.strip())
    if mobj:
        kind, a_raw, b_raw = mobj.groups()
        a, b = float(a_raw), float(b_raw)
        if kind == "chain":
            return geometric_chain(a, int(b))
        return integer_ray(int(b), a)
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


def _require(cfg: RunConfig, *names: str) -> None:
    for name in names:
        if getattr(cfg, name) is None:
            raise _InputError(f"--{name} is required for '{cfg.command}'")


def _require_format(cfg: RunConfig, allowed: Tuple[str, ...]) -> str:
    fmt = cfg.format or allowed[0]
    if fmt not in allowed:
        raise _InputError(
            f"'{cfg.command}' supports format {'/'.join(allowed)}, got {fmt!r}"
        )
    return fmt


def _render_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _config_preamble(cfg: RunConfig) -> str:
    doc = cfg.to_jsonable()
    return "".join(f"# {key}={json.dumps(doc[key])}\n" for key in sorted(doc))


# ---------------------------------------------------------------------------
# subcommands (each returns rendered output text + exit code)


def cmd_lip(cfg: RunConfig) -> Tuple[str, int]:
    _require(cfg, "metric", "values")
    _require_format(cfg, ("json",))
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
        "config": cfg.to_jsonable(),
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


def cmd_rings(cfg: RunConfig) -> Tuple[str, int]:
    _require(cfg, "metric", "eps", "k")
    _require_format(cfg, ("json",))
    M = _metric_from_arg(cfg.metric)
    got = find_ring_family(M, cfg.eps, _single_k(cfg.k))
    if isinstance(got, RingSearchExhausted):
        doc = {
            "config": cfg.to_jsonable(),
            "not_found": {
                "pairs_examined": got.pairs_examined,
                "accepted": got.accepted,
            },
        }
        return _render_json(doc), EXIT_NOT_FOUND
    doc = {
        "config": cfg.to_jsonable(),
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


def cmd_cert(cfg: RunConfig) -> Tuple[str, int]:
    _require(cfg, "eps", "n", "seed")
    _require_format(cfg, ("json",))
    if (cfg.space is None) == (cfg.metric is None):
        raise _InputError("'cert' takes exactly one of --space or --metric")
    rng = np.random.default_rng(cfg.seed)

    if cfg.space is not None:
        _require(cfg, "m")
        module = _as_module(parse_space(cfg.space))
        fd = dim(module.fiber)
        e = extreme_unit_section(module)
        z = []
        for _ in range(cfg.n):
            sec = FunctionModuleSection(rng.standard_normal((module.base_size, fd)))
            s = module_section_norm(module, sec)
            z.append(FunctionModuleSection(sec.values / s) if s > 1.0 else sec)
        sets = [[j] for j in range(cfg.m)]
        constructed = centralizer_construct(module, z, e, sets)
        rep = centralizer_verify(module, z, constructed, cfg.m, cfg.eps)
        doc = {
            "config": cfg.to_jsonable(),
            "route": "partition",
            "report": rep.to_jsonable(),
        }
        return _render_json(doc), EXIT_OK if rep.passed else EXIT_FAIL

    _require(cfg, "k")
    k = _single_k(cfg.k)
    M = _metric_from_arg(cfg.metric)
    if cfg.family is not None:
        family = _load_family(cfg.family)
    else:
        got = find_ring_family(M, cfg.eps, k)
        if isinstance(got, RingSearchExhausted):
            doc = {
                "config": cfg.to_jsonable(),
                "route": "annulus",
                "not_found": {
                    "pairs_examined": got.pairs_examined,
                    "accepted": got.accepted,
                },
            }
            return _render_json(doc), EXIT_NOT_FOUND
        family = got
    if k > len(family.entries):
        raise _InputError(f"k={k} exceeds the family size {len(family.entries)}")
    validation = validate_ring_family(M, family)
    doc = {
        "config": cfg.to_jsonable(),
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
    rep = ivakhno_verify(M, z, constructed, k, cfg.eps, family)
    doc["report"] = rep.to_jsonable()
    return _render_json(doc), EXIT_OK if rep.passed else EXIT_FAIL


def _ceiling_profile(cfg: RunConfig, module: FunctionModule, ks: List[int]) -> DkProfile:
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


def cmd_dk(cfg: RunConfig) -> Tuple[str, int]:
    _require(cfg, "space", "n", "eps", "k")
    fmt = _require_format(cfg, ("csv", "json"))
    space = parse_space(cfg.space)
    ks = _k_range(cfg.k)
    CmParams(cfg.n, cfg.eps, cfg.alpha)  # both routes check n, eps and alpha alike
    if isinstance(space, FunctionModule):
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
    if fmt == "csv":
        return _config_preamble(cfg) + prof.to_csv(), EXIT_OK
    doc = {
        "config": cfg.to_jsonable(),
        "route": route,
        "profile": prof.to_jsonable(),
    }
    return _render_json(doc), EXIT_OK


_COMMANDS = {
    "lip": cmd_lip,
    "rings": cmd_rings,
    "cert": cmd_cert,
    "dk": cmd_dk,
}
_NEEDS_SEED = ("cert", "dk")


# ---------------------------------------------------------------------------
# argument plumbing


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="hullgap",
        description="deficiency profiles, Lipschitz certificates, ring search",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "lip": "seminorm and extension of a function on a metric file",
        "rings": "search a metric for a family of disjoint annuli",
        "cert": "run one construct-and-verify certificate pipeline",
        "dk": "sweep a deficiency profile over a range of k",
    }
    for name, help_text in specs.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--space", help="space grammar, e.g. lp(inf,8) or fmod(8, lp(2,1))")
        p.add_argument("--metric", help="metric file path, or chain(q,L) / ray(a,L)")
        p.add_argument("--family", help="ring family file (output of 'rings')")
        p.add_argument("--values", help="function values: inline floats or @file")
        p.add_argument("--mask", help="restriction mask indices, e.g. 0,2,5")
        p.add_argument("--n", type=int, help="tuple length")
        p.add_argument("--eps", type=float, help="mean-norm slack")
        p.add_argument("--alpha", type=float, default=1.0, help="sup-norm cap (default 1)")
        p.add_argument("--k", help="generator budget: '3', '1,2,5', or '1..4'")
        p.add_argument("--m", type=int, help="partition set count")
        p.add_argument("--budget", type=int, default=8, help="search width (default 8)")
        p.add_argument("--seed", type=int, help="rng seed (required when sampling)")
        p.add_argument("--resolution", type=float, help="grid step for certified bounds")
        p.add_argument("--out", help="output file (default stdout)")
        p.add_argument("--format", choices=("json", "csv"), help="output format")
    return parser


def _emit(cfg: RunConfig, text: str, code: int) -> int:
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
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if isinstance(code, int) else EXIT_INPUT
    cfg = RunConfig(**{f.name: getattr(ns, f.name) for f in fields(RunConfig)})
    try:
        if cfg.seed is None and cfg.command in _NEEDS_SEED:
            raise _InputError(f"--seed is required for '{cfg.command}'")
        text, code = _COMMANDS[cfg.command](cfg)
    except CapabilityRefusal as exc:
        doc = {
            "config": cfg.to_jsonable(),
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
