"""Deterministic artifact writers.

Main artifacts are byte-identical across runs with the same inputs:
insertion-ordered JSON with two-space indent and no timestamps.  Run
metadata (timestamp, versions) goes to a ``<name>.meta.json`` sidecar.
"""
from __future__ import annotations

import csv
import datetime
import json
import platform
from pathlib import Path

from mpmath import mp

from . import __version__


def mpf_str(x, digits: int = 30) -> str:
    return mp.nstr(x, digits, strip_zeros=False)


def provenance(command: str, params: dict, precision_dps: int | None = None) -> dict:
    out = {
        "tool": "zetaforms",
        "version": __version__,
        "command": command,
        "parameters": params,
    }
    if precision_dps is not None:
        out["precision_dps"] = precision_dps
    return out


def write_json(path: str | Path, doc: dict) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2) + "\n")
    meta = {
        "written_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "python": platform.python_version(),
        "artifact": path.name,
    }
    path.with_suffix(path.suffix + ".meta.json").write_text(
        json.dumps(meta, indent=2) + "\n")
    return path


def write_csv(path: str | Path, header: list[str], rows) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        write_csv_rows(fh, header, rows)
    return path


def write_csv_rows(fh, header: list[str], rows) -> None:
    """header and rows as CSV on the open text stream fh."""
    w = csv.writer(fh)
    w.writerow(header)
    w.writerows(rows)


RATE_CSV_COLUMNS = ["n", "logSn_over_n", "logSppn_over_n", "sign", "cos_reference"]


def rate_report_rows(report) -> list[list]:
    return [
        [s.n, repr(s.log_sn_over_n), repr(s.log_sppn_over_n), s.sign_pp, repr(s.cos_reference)]
        for s in report.samples
    ]


def rate_report_json(report) -> dict:
    return {
        "schema": "zetaforms/rate-report@1",
        "a": report.a,
        "r": report.r,
        "log_eps_a": report.log_eps_a,
        "log_eps_pp_a": report.log_eps_pp_a,
        "omega_a": report.omega_a,
        "phi_a": report.phi_a,
        "cos_exclusion": report.cos_exclusion,
        "samples": [
            {
                "n": s.n,
                "logSn_over_n": s.log_sn_over_n,
                "logSppn_over_n": s.log_sppn_over_n,
                "sign": s.sign_pp,
                "cos_reference": s.cos_reference,
                "excluded": s.excluded,
            }
            for s in report.samples
        ],
    }


def saddle_json(data, assumptions: dict | None = None) -> dict:
    digits = max(30, data.dps - 10)
    doc = {
        "schema": "zetaforms/saddle-certificate@1",
        "a": data.a,
        "r": data.r,
        "mu1": mpf_str(data.mu1, digits),
        "tau0": {"re": mpf_str(mp.re(data.tau0), digits),
                 "im": mpf_str(mp.im(data.tau0), digits)},
        "log_eps_a": mpf_str(data.log_eps_a, digits),
        "log_eps_pp_a": mpf_str(data.log_eps_pp_a, digits),
        "eps_a_lt_1": bool(data.log_eps_a < 0),
        "eps_pp_lt_eps": bool(data.log_eps_gap > 0),
        "omega_a": mpf_str(data.omega_a, digits),
        "phi_a": mpf_str(data.phi_a, digits),
        "diagnostics": {
            "alpha_plus": mpf_str(data.alpha_plus, 24),
            "alpha_minus": mpf_str(data.alpha_minus, 24),
            "beta_plus": mpf_str(data.beta_plus, 24),
            "beta_minus": mpf_str(data.beta_minus, 24),
            "nu_a": mpf_str(data.nu_a, 12),
            "angle_identity_residual": mpf_str(abs(data.angle_identity_residual), 8),
            "fprime_tau0_minus_ipi": mpf_str(data.fprime_tau0_minus_ipi, 8),
        },
        "residuals": {
            "mu1_scaled": mpf_str(data.mu1_residual, 8),
            "tau0_scaled": mpf_str(data.tau0_residual, 8),
        },
        "precision_dps": data.dps,
        "certificates": data.certificates,
    }
    if assumptions is not None:
        doc["assumption_report"] = assumptions
    return doc
