"""Print the design-size figures of the blitzsim sources, one per line.

Usage: python3 tools/design_metrics.py   (standard library only, no flags)

src_lines
    Lines of src/blitzsim/*.py, as `wc -l` counts them.
src_prose_lines
    The lines of src_lines that hold a comment or a docstring and no code,
    found with `tokenize`. A docstring is a string that makes up a whole
    statement; each line it spans counts. A line with code and a trailing
    comment is code. So src_lines - src_prose_lines is the code and blank
    lines.
settable_values
    Values a caller or user can set independently, counted with `ast`:
    - every parameter (positional-only, positional, keyword-only, *args
      and **kwargs) of each function defined at module level and of each
      method defined directly in a module-level class body, leaving out a
      method's first parameter when it is named self or cls; nested
      functions and lambdas are not counted;
    - every annotated field of a module-level class decorated with
      @dataclass, leaving out ClassVar annotations;
    - every key of the `_SCENARIO_FILE_KEYS` dict literal of harness.py
      (the scenario-file keys);
    - every `add_argument` call in cli.py whose first argument starts with
      "-" (CLI flags, counted once per subcommand that takes them).
dispatched_per_data_packet
    Events the simulator dispatches per data packet sent, both flows
    counted, on the dsl-fast 10M baseline cell, rep 0, seed 1:
    `Simulator.dispatched` once the run is over, over both flows' data
    packets. Every dispatch counts, whatever its kind: packet and ACK
    arrivals, timers that fire, the handshakes and `app-start`; an entry
    a re-key or cancel left dead on the heap is skipped, not dispatched,
    and does not count. Nor does a timer entry that pops before its
    `Event.due`, which the engine re-keys to the due, or one whose due is
    negative, which it drops.
cancelled_per_data_packet
    Timer keys given up per data packet sent, on the same cell:
    `Simulator.cancelled` once the run is over, which counts each
    `cancel` of an armed timer and each `arm` that re-keys an armed
    one. The PTO and the ACK-delay timer move their `Event.due` and
    re-key only when they must fire earlier, so this is near 0;
    tests/test_tools.py holds it to 0.05 or below. Printed to four places.
calls_per_data_packet
    Python function calls per data packet sent, on the same cell: the
    `call` events a `sys.setprofile` hook sees while the run simulates,
    over both flows' data packets. Calls into C, such as heapq and bisect,
    are not counted. The run is deterministic, and so is the count;
    tests/test_tools.py holds it to a budget of 8.
c_calls_per_data_packet
    Calls into C per data packet sent, from the same hook and run: its
    `c_call` events, such as `heapq.heappush`, `dict.get`, `len` and
    `list.pop`. Calling a class or a type, such as `Ack(...)` or
    `list(...)`, is no `c_call` event, but `object.__new__(Packet)`, with
    which `maybe_send` makes each packet, is one. tests/test_tools.py
    holds it to 14.
range_adds_per_ack
    ACK ranges a sender did not hold before the ACK, per ACK it receives,
    both flows counted, on the dsl-fast 2M blitz:4 cell, rep 0, seed 1:
    the ranges of each ACK that are not among the sender's
    `acked_ranges.ranges` when the ACK arrives. An ACK carries every range
    the receiver holds, and the sender adds only these, by extending its
    last range inline or through `RangeSet.add`; about one per ACK.
    Counted by wrapping each sender's `on_ack`, so ACKs that reach a
    finished sender, which adds nothing, count in neither term.
frozen_warm_run_bytes
    Bytes of the pickle `TwoFlowRun.freeze()` gives for the dsl-fast 70K
    baseline cell, rep 0, seed 1, at the end of `warm_up()`: the warm copy
    each fork of that group loads. The run is deterministic, and so is the
    size; tests/test_tools.py holds it to a budget of 27,000.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from functools import lru_cache
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
PKG = SRC / "blitzsim"


def src_lines() -> int:
    return sum(path.read_bytes().count(b"\n")
               for path in sorted(PKG.glob("*.py")))


# tokens that neither hold prose nor make a line code
_LAYOUT = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def src_prose_lines() -> int:
    total = 0
    for path in sorted(PKG.glob("*.py")):
        with path.open("rb") as fh:
            tokens = list(tokenize.tokenize(fh.readline))
        prose: set[int] = set()
        code: set[int] = set()
        # a docstring follows a statement's end, with only comments between
        after_statement = True
        for tok, nxt in zip(tokens, tokens[1:]):
            if tok.type in _LAYOUT:
                after_statement |= tok.type != tokenize.NL
                continue
            lines = range(tok.start[0], tok.end[0] + 1)
            if tok.type == tokenize.COMMENT or (
                    tok.type == tokenize.STRING and after_statement
                    and nxt.type in (tokenize.NEWLINE, tokenize.COMMENT)):
                prose.update(lines)
            else:
                code.update(lines)
            after_statement = after_statement and tok.type == tokenize.COMMENT
        total += len(prose - code)
    return total


def _params(fn: ast.FunctionDef | ast.AsyncFunctionDef, method: bool) -> int:
    args = fn.args
    names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    names += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
    if method and names and names[0] in ("self", "cls"):
        names = names[1:]
    return len(names)


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for dec in cls.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else (
            target.id if isinstance(target, ast.Name) else None)
        if name == "dataclass":
            return True
    return False


def _is_classvar(annotation: ast.expr) -> bool:
    node = annotation
    if isinstance(node, ast.Subscript):
        node = node.value
    return ast.unparse(node).split(".")[-1] == "ClassVar"


def settable_values() -> int:
    total = 0
    for path in sorted(PKG.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                total += _params(node, method=False)
            elif isinstance(node, ast.ClassDef):
                dataclass = _is_dataclass(node)
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                        total += _params(item, method=True)
                    elif (dataclass and isinstance(item, ast.AnnAssign)
                          and isinstance(item.target, ast.Name)
                          and not _is_classvar(item.annotation)):
                        total += 1
            elif (path.name == "harness.py" and isinstance(node, ast.Assign)
                  and any(isinstance(t, ast.Name)
                          and t.id == "_SCENARIO_FILE_KEYS"
                          for t in node.targets)):
                total += len(node.value.keys)
        if path.name == "cli.py":
            for call in ast.walk(tree):
                if (isinstance(call, ast.Call)
                        and isinstance(call.func, ast.Attribute)
                        and call.func.attr == "add_argument" and call.args
                        and isinstance(call.args[0], ast.Constant)
                        and str(call.args[0].value).startswith("-")):
                    total += 1
    return total


@lru_cache(maxsize=1)
def _finished_run():
    """The dsl-fast 10M baseline cell, rep 0, seed 1, run to its end."""
    sys.path.insert(0, str(SRC))
    from blitzsim.harness import PRESETS, SIZES, TwoFlowRun, Variant

    run = TwoFlowRun(PRESETS["dsl-fast"], SIZES["10M"], Variant(), 0)
    run.run()
    return run


def dispatched_per_data_packet() -> float:
    run = _finished_run()
    return run.sim.dispatched / (run.long_conn.pkts_sent
                                 + run.short_conn.pkts_sent)


def cancelled_per_data_packet() -> float:
    run = _finished_run()
    return run.sim.cancelled / (run.long_conn.pkts_sent
                                + run.short_conn.pkts_sent)


@lru_cache(maxsize=1)
def _profiled_calls() -> tuple[float, float]:
    """(Python calls, C calls) per data packet on the dsl-fast 10M cell."""
    sys.path.insert(0, str(SRC))
    from blitzsim.harness import PRESETS, SIZES, TwoFlowRun, Variant

    run = TwoFlowRun(PRESETS["dsl-fast"], SIZES["10M"], Variant(), 0)
    calls = c_calls = 0

    def profile(_frame, event, _arg):
        nonlocal calls, c_calls
        if event == "call":
            calls += 1
        elif event == "c_call":
            c_calls += 1

    sys.setprofile(profile)
    try:
        run.run()
    finally:
        sys.setprofile(None)
    sent = run.long_conn.pkts_sent + run.short_conn.pkts_sent
    return calls / sent, c_calls / sent


def calls_per_data_packet() -> float:
    return _profiled_calls()[0]


def c_calls_per_data_packet() -> float:
    return _profiled_calls()[1]


def range_adds_per_ack() -> float:
    sys.path.insert(0, str(SRC))
    from blitzsim.harness import PRESETS, SIZES, TwoFlowRun, Variant

    run = TwoFlowRun(PRESETS["dsl-fast"], SIZES["2M"], Variant(4.0), 0)
    conns = (run.long_conn, run.short_conn)
    unheld = 0
    for conn in conns:
        def counted(ack, now, conn=conn, on_ack=conn.on_ack):
            nonlocal unheld
            if not conn.finished:
                held = set(conn.acked_ranges.ranges)
                unheld += sum(rng not in held for rng in ack.acked_ranges)
            on_ack(ack, now)
        conn.on_ack = counted
    run.run()
    return unheld / sum(conn.acks_received for conn in conns)


def frozen_warm_run_bytes() -> int:
    sys.path.insert(0, str(SRC))
    from blitzsim.harness import PRESETS, SIZES, TwoFlowRun, Variant

    run = TwoFlowRun(PRESETS["dsl-fast"], SIZES["70K"], Variant(), 0)
    if not run.warm_up():
        raise RuntimeError("the dsl-fast 70K baseline cell never warms up")
    return len(run.freeze())


def main() -> int:
    print(f"src_lines {src_lines()}")
    print(f"src_prose_lines {src_prose_lines()}")
    print(f"settable_values {settable_values()}")
    print(f"dispatched_per_data_packet {dispatched_per_data_packet():.2f}")
    print(f"cancelled_per_data_packet {cancelled_per_data_packet():.4f}")
    print(f"calls_per_data_packet {calls_per_data_packet():.2f}")
    print(f"c_calls_per_data_packet {c_calls_per_data_packet():.2f}")
    print(f"range_adds_per_ack {range_adds_per_ack():.2f}")
    print(f"frozen_warm_run_bytes {frozen_warm_run_bytes()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
