"""Workloads of the advwave benchmark: seeded inputs, ops, and output checks.

An op is one thing a user asks for: a CLI command run through
``advwave.cli.main`` or the library call ``kinetics.posdisp_change``.  Every
op belongs to at most one family (``figure``, ``corr``, ``detect``,
``posdisp``), whose time per pass the report prints as ``<family>_s``; ops
without a family (``power``, ``validate``) count only in ``wall_s``.

The seed varies only inputs that leave the work size fixed: the observation
distance ``--r0-gamma`` (within 5 % of 1/3) and the ``posdisp`` time (one of
nine values within 1 % of 1/gamma).  ``--omega0-ratio`` is never varied:
the cost of several layers scales with it.

This module imports nothing from advwave at import time, so the runner can cap
the numeric libraries' thread pools before numpy loads.
"""
from __future__ import annotations

import contextlib
import csv
import io
import os
import random
from dataclasses import dataclass

WORKLOADS = ("tables", "validate", "optical")
FAMILIES = ("figure", "corr", "detect", "posdisp")

_R0_GAMMA = 1.0 / 3.0
_R0_JITTER = 0.05
_POSDISP_STEP = 0.0025

# posdisp_change(t / gamma, omega0 = 100 gamma, r0 = (1/3, 0, 0) / gamma,
# q = m = 1) at t = 1 + 0.0025 (k - 4), k = 0..8, as the converged integral:
# each gated term of the radiation-zone kernel integrated over its own support
# with Gauss-Legendre nodes (200 and 400 nodes per axis agree to 1e-12).
# The package's uniform trapezoid sits 2.7-7.3 % off these values, because the
# advanced-wave gate |t3 - t4| >= 2 r0 cuts its grid.  That term is about 18 %
# of the total, so a 10 % tolerance passes the trapezoid and an exact form
# and fails a lost or doubled advanced-wave term.
_POSDISP_REF = (0.007755788246617296, 0.007878511381536281, 0.007997904640318158,
                0.00811048974475664, 0.008213217328804581, 0.00830365866034825,
                0.00838015961356714, 0.008441947130400777, 0.008489181324548227)
_POSDISP_TOL = 0.10
# |fit_slope_over_gamma - 1| for figure 3 (the long-time slope is gamma)
_SLOPE_TOL = 0.02


def inputs(seed: int) -> tuple[float, int]:
    """(r0_gamma, posdisp index k) for a workload seed."""
    rng = random.Random(seed)
    r0 = _R0_GAMMA * (1.0 + _R0_JITTER * (2.0 * rng.random() - 1.0))
    return r0, rng.randrange(9)


@dataclass(frozen=True)
class Op:
    """One user request: CLI arguments, or a posdisp call when ``argv`` is empty."""

    label: str
    family: str | None
    argv: tuple = ()
    t_gamma: float = 0.0
    omega0_ratio: float = 100.0
    expect: float | None = None


def _cli(family, *argv, r0):
    return Op(" ".join(argv), family, tuple(argv) + ("--r0-gamma", repr(r0)))


def _posdisp(k):
    t = 1.0 + _POSDISP_STEP * (k - 4)
    return Op(f"posdisp t={t:g}", "posdisp", t_gamma=t, expect=_POSDISP_REF[k])


def ops(workload: str, seed: int) -> list[Op]:
    """The ops of one timed pass, in order."""
    r0, k = inputs(seed)
    if workload == "tables":
        return [
            _cli("figure", "figure", "1", r0=r0),
            _cli("figure", "figure", "2", r0=r0),
            _cli("figure", "figure", "3", r0=r0),
            _cli(None, "power", "pert", r0=r0),
            _cli(None, "power", "nonpert", r0=r0),
            _cli("corr", "corr", r0=r0),
            _cli("detect", "detect", r0=r0),
        ]
    if workload == "validate":
        return [_cli(None, "validate", "--full", "--count", "200", r0=r0)]
    if workload == "optical":
        return [
            _cli("figure", "figure", "3", "--omega0-ratio", "1000", r0=r0),
            _cli("detect", "detect", "--omega0-ratio", "1000", "--points", "60", r0=r0),
            _posdisp(k),
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def probe_ops(workload: str, seed: int) -> list[Op]:
    """Smallest inputs that reach the same code as ``ops``: the set-up probe.

    The probe's validate is under-resolved on purpose (4 modes over 1 gamma),
    so its rows fail and it exits 2; only its run time is used.
    """
    r0, _ = inputs(seed)
    if workload == "tables":
        return [
            _cli("figure", "figure", "3", "--omega0-ratio", "10", r0=r0),
            _cli(None, "power", "pert", r0=r0),
            _cli(None, "power", "nonpert", "--points", "3", r0=r0),
            _cli("corr", "corr", "--points", "2", r0=r0),
            _cli("detect", "detect", "--points", "2", r0=r0),
        ]
    if workload == "validate":
        return [_cli(None, "validate", "--full", "--count", "4", "--span", "1", r0=r0)]
    if workload == "optical":
        return [
            _cli("figure", "figure", "3", "--omega0-ratio", "10", r0=r0),
            _cli("detect", "detect", "--points", "2", r0=r0),
            Op("posdisp t=0.4", "posdisp", t_gamma=0.4, omega0_ratio=10.0),
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def execute(op: Op, out_dir: str):
    """Run one op; returns (exit code, value).  Timing is the caller's."""
    if op.argv:
        from advwave import cli

        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(list(op.argv) + ["--out", out_dir]), None
    from advwave import core, kinetics

    params = core.DipoleParams.from_rates(omega0=op.omega0_ratio, gamma=1.0)
    charge = kinetics.ChargeParams(q=1.0, m=1.0, r0=(_R0_GAMMA, 0.0, 0.0))
    return 0, kinetics.posdisp_change(op.t_gamma, params, charge)


def posdisp_error(op: Op, value) -> float:
    """Relative distance of a posdisp result from the converged integral."""
    return abs(value - op.expect) / abs(op.expect)


def _tail_meta(path, size=4096):
    """``# key = value`` lines in the last ``size`` bytes of a file."""
    with open(path, "rb") as fh:
        fh.seek(max(0, os.path.getsize(path) - size))
        tail = fh.read().decode("ascii", "replace").splitlines()
    return dict(_meta_item(line) for line in tail if line.startswith("#"))


def _meta_item(line):
    key, _, value = line[1:].partition("=")
    return key.strip(), value.strip()


def _read_csv(path):
    meta, body = {}, []
    with open(path, newline="") as fh:
        for line in fh:
            if line.startswith("#"):
                key, value = _meta_item(line)
                meta[key] = value
            else:
                body.append(line)
    return meta, list(csv.DictReader(body))


def check(op: Op, out_dir: str, rc: int, value) -> str | None:
    """None when the op's output is correct, else a one-line reason."""
    if rc != 0:
        return f"exit code {rc}"
    words = op.argv[:2]
    if words[:1] == ("figure",) and words[1] == "3":
        meta = _tail_meta(os.path.join(out_dir, "fig3.csv"))
        slope = float(meta["fit_slope_over_gamma"])
        if abs(slope - 1.0) > _SLOPE_TOL:
            return f"fit_slope_over_gamma = {slope!r}, not within {_SLOPE_TOL} of 1"
    elif words[:1] == ("corr",):
        meta, rows = _read_csv(os.path.join(out_dir, "corr.csv"))
        gate = 2.0 * float(meta["r0_gamma"]) * (1.0 - 1e-9)
        inside = [r for r in rows if abs(float(r["tp_gamma"]) - float(r["t_gamma"])) < gate]
        if not inside:
            return "no corr cell inside the light-cone gate"
        bad = [r for r in inside if float(r["re_delta"]) != 0.0 or float(r["im_delta"]) != 0.0]
        if bad:
            return f"{len(bad)} corr cells with |t'-t| < 2 r0 have nonzero interference"
    elif words[:1] == ("detect",):
        meta, rows = _read_csv(os.path.join(out_dir, "detect.csv"))
        onset = float(meta["onset_t_gamma"]) * (1.0 - 1e-12)
        before = [r for r in rows if float(r["t_gamma"]) < onset]
        if not before:
            return "no detect row before the round-trip onset 2x"
        bad = [r for r in before if float(r["rate_c"]) != float(r["rate_g"])]
        if bad:
            return f"{len(bad)} detect rows before 2x have rate_c != rate_g"
    elif words[:1] == ("validate",):
        with open(os.path.join(out_dir, "validate.txt")) as fh:
            if "all 9 checks passed" not in fh.read():
                return "validate did not report 'all 9 checks passed'"
    elif op.expect is not None:
        rel = posdisp_error(op, value)
        if not rel <= _POSDISP_TOL:
            return f"posdisp {value!r} is {rel:.3g} away from {op.expect!r} (tolerance {_POSDISP_TOL})"
    return None
