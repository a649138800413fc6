"""Inference output must not depend on ``PYTHONHASHSEED``.

The engine iterates over free-variable collections in many places
(generalisation order, promotion, defaulting, watch registration); if
any of those iterate a hash-ordered ``set`` of variables, binder names
and trace streams silently reshuffle between interpreter runs.  The core
therefore keeps every ``fuv``/``ftv`` result in first-occurrence order
(:class:`repro.core.types.OrderedSet`) — and this test proves the
end-to-end property the hard way: two subprocesses with *different* hash
seeds must produce byte-identical pretty-printed types and canonicalized
trace streams.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")

# Every run infers the Figure-2 sweep plus the synthetic stress terms and
# prints: one line per term (type or error class), then every trace event
# with the volatile fields (timestamps, durations, thread ids) removed.
CHILD_SCRIPT = r"""
import json, sys
from repro.core.errors import GIError
from repro.core.infer import Inferencer
from repro.evalsuite.figure2 import FIGURE2, figure2_env
from repro.evalsuite.workloads import deep_chain_term, defaulting_fan, mixed_program
from repro.observability import JsonlWriter, Tracer

VOLATILE = {"ts", "start", "end", "dur", "duration", "elapsed_seconds", "thread"}

def scrub(value):
    if isinstance(value, dict):
        return {k: scrub(v) for k, v in sorted(value.items()) if k not in VOLATILE}
    if isinstance(value, list):
        return [scrub(item) for item in value]
    return value

env = figure2_env()
terms = [example.term for example in FIGURE2]
terms += [deep_chain_term(40), defaulting_fan(8), mixed_program(12, seed=7)]

trace_path = sys.argv[1]
with open(trace_path, "w", encoding="utf-8") as handle:
    tracer = Tracer(sink=JsonlWriter(handle))
    inferencer = Inferencer(env, tracer=tracer)
    for term in terms:
        try:
            print(str(inferencer.infer(term).type_))
        except GIError as error:
            print(f"{type(error).__name__}: {error}")

with open(trace_path, "r", encoding="utf-8") as handle:
    for line in handle:
        print(json.dumps(scrub(json.loads(line)), sort_keys=True))
"""


def _run(hashseed: str, tmp_path: Path, tag: str) -> str:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hashseed
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    trace_path = str(tmp_path / f"trace-{tag}.jsonl")
    completed = subprocess.run(
        [sys.executable, "-c", CHILD_SCRIPT, trace_path],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    return completed.stdout


def test_output_identical_across_hash_seeds(tmp_path):
    first = _run("0", tmp_path, "a")
    second = _run("4242", tmp_path, "b")
    assert first, "the child run must produce output"
    if first != second:
        for line_a, line_b in zip(first.splitlines(), second.splitlines()):
            assert line_a == line_b, f"first divergence:\n  {line_a}\n  {line_b}"
    assert first == second

    # Sanity: the stream really contains both inference results and the
    # solver's scheduling events, so the comparison has teeth.
    assert "forall" in first
    assert '"event"' in first
