"""Failure accounting for benchmark runs.

A check is one of: an exact manifest row, a CLI exit code, an oracle
comparison made by the benchmark, or an artifact digest compared between two
runs with the same seed.  Manifest rows that are calibrated statistical tests
or Monte Carlo profiles fail at a nonzero rate on a correct program, so they
are tallied apart (``stat_attempted`` / ``stat_failed``) and do not make a
run incorrect.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

STATISTICAL_ROWS = frozenset({
    "chain_q_ks", "chain_q_chi2", "chain_lazy_ks", "chain_lazy_chi2",
    "flip_exit_chi2", "flip_updown_chi2",
    "beta_profile_decreasing", "distance_profile_decreasing",
})

ARTIFACT_SUFFIXES = (".csv", ".svg")


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    stat_attempted: int = 0
    stat_failed: int = 0
    failures: list = field(default_factory=list)

    def check(self, ok: bool, what) -> None:
        """Count one check; ``what`` names it and is kept if it fails."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(str(what))

    def add(self, other: dict) -> None:
        self.attempted += other["attempted"]
        self.failed += other["failed"]
        self.stat_attempted += other["stat_attempted"]
        self.stat_failed += other["stat_failed"]
        self.failures.extend(other["failures"])


def account_subcommand(tally: Tally, out: Path, subcommand: str, exit_code) -> None:
    """Count the manifest rows and the exit code of one CLI subcommand.

    The exit code must be 0 when every row passes and 1 otherwise; anything
    else (2, or the text of an exception the CLI raised) is a failed check.
    """
    path = out / f"{subcommand}_manifest.json"
    if not path.exists():
        tally.check(False, f"{subcommand}: no manifest (exit code {exit_code})")
        return
    rows = json.loads(path.read_text())["checks"]
    any_fail = False
    for row in rows:
        passed = row["status"] == "pass"
        any_fail = any_fail or not passed
        if row["name"] in STATISTICAL_ROWS:
            tally.stat_attempted += 1
            tally.stat_failed += not passed
        else:
            tally.check(passed, f"{subcommand}: {row['name']} FAIL "
                                f"(value={row['value']}, threshold={row['threshold']})")
    expected = 1 if any_fail else 0
    tally.check(exit_code == expected,
                f"{subcommand}: exit code {exit_code}, manifest implies {expected}")


def artifact_digests(out: Path) -> dict:
    """SHA-256 of every CSV and SVG file in the output directory."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.suffix in ARTIFACT_SUFFIXES}


def artifact_bytes(out: Path) -> int:
    return sum(p.stat().st_size for p in out.iterdir() if p.is_file())


def compare_digests(tally: Tally, first: dict, second: dict) -> None:
    """One check per artifact: equal digests from two runs with one seed."""
    for name in sorted(first.keys() | second.keys()):
        digest = first.get(name)
        tally.check(digest is not None and digest == second.get(name),
                    f"{name}: digest differs between two runs with the same seed")
