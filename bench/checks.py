"""Checks on the outcome of one CLI run.

A run passes when it ends with one of its expected exit codes, prints no
Python traceback, and, on success, writes every file its subcommand
promises with the right content: the JSON outputs validate against the
package's own schemas, the closed-form graph of ``lcg`` has slope n to
1e-9, and every hard check in ``verify.json`` passed.  Each output file's
sha256 is recorded so that output changes between commits show.
"""

from __future__ import annotations

import hashlib
import json
import os

import jsonschema

OUTPUTS = {
    "sample": ("samples.csv", "samples.json"),
    "lcg": ("lcg_closed.csv", "lcg_fit.json", "lcg_numeric.csv"),
    "verify": ("verify.json",),
    "svg": ("curve.svg", "lcg.svg", "rho.svg"),
}

_SCHEMAS = {
    "samples.json": "samples.schema.json",
    "lcg_fit.json": "lcg_fit.schema.json",
    "verify.json": "verify.schema.json",
}

SLOPE_TOL = 1e-9


class Checker:
    """Validates run outcomes.

    Validating a 65,536-row samples.json takes seconds, so a file that
    passed is remembered by a marker in ``cache_dir`` named after the run,
    the file's digest and the digests of the schemas and of this module;
    the same bytes checked by the same code are not checked again.
    """

    def __init__(self, schema_dir: str, cache_dir: str):
        self._validators = {}
        version = hashlib.sha256()
        with open(__file__, "rb") as fh:
            version.update(fh.read())
        for out_name, schema_name in _SCHEMAS.items():
            with open(os.path.join(schema_dir, schema_name), "rb") as fh:
                text = fh.read()
            version.update(text)
            self._validators[out_name] = jsonschema.Draft202012Validator(json.loads(text))
        self._version = version.hexdigest()
        self._cache_dir = cache_dir
        os.makedirs(cache_dir, exist_ok=True)

    def check(self, run, code: int | None, stderr: str, out_dir: str) -> tuple[list[str], dict[str, str]]:
        """Return (problems, {file name: sha256}) for one finished run."""
        problems = []
        if code not in run.codes:
            problems.append(f"exit code {code}, expected {' or '.join(map(str, run.codes))}")
        if "Traceback" in stderr:
            last = stderr.strip().splitlines()[-1] if stderr.strip() else ""
            problems.append(f"uncaught exception: {last}")
        digests = {}
        names = sorted(os.listdir(out_dir)) if os.path.isdir(out_dir) else []
        for name in names:
            with open(os.path.join(out_dir, name), "rb") as fh:
                digests[name] = hashlib.sha256(fh.read()).hexdigest()
        if code == 0:
            missing = [f for f in OUTPUTS[run.command] if f not in digests]
            if missing:
                problems.append(f"missing outputs: {', '.join(missing)}")
            for name in names:
                key = f"{self._version} {run.id} {name} {digests[name]}"
                marker = os.path.join(self._cache_dir, hashlib.sha256(key.encode()).hexdigest())
                if os.path.exists(marker):
                    continue
                found = self._content(run, os.path.join(out_dir, name), name)
                if found:
                    problems.extend(found)
                else:
                    with open(marker, "w", encoding="utf-8") as fh:
                        fh.write(key + "\n")
        return problems, digests

    def _content(self, run, path: str, name: str) -> list[str]:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        if name.endswith(".svg"):
            ok = text.startswith("<svg") and "<polyline" in text and text.endswith("</svg>\n")
            return [] if ok else [f"{name}: not a polyline plot"]
        if name.endswith(".csv"):
            lines = text.splitlines()
            if name == "samples.csv" and len(lines) != run.rows + 1:
                return [f"{name}: {len(lines) - 1} rows, expected {run.rows}"]
            return [] if len(lines) >= 1 else [f"{name}: empty"]
        data = json.loads(text)
        errors = [f"{name}: {e.message}" for e in self._validators[name].iter_errors(data)]
        if errors:
            return errors[:3]
        if name == "samples.json" and len(data["rows"]) != run.rows:
            return [f"{name}: {len(data['rows'])} rows, expected {run.rows}"]
        if name == "lcg_fit.json":
            n = run.n()
            slope = data["closed_form"]["slope"]
            if slope is None or abs(slope - n) > SLOPE_TOL:
                return [f"{name}: closed-form slope {slope!r} is not within {SLOPE_TOL} of n={n}"]
        if name == "verify.json":
            failed = [c["name"] for c in data["checks"] if c["hard"] and not c["passed"]]
            if failed:
                return [f"{name}: hard checks failed: {', '.join(failed)}"]
        return []
