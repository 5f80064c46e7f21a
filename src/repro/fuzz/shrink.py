"""Delta-debugging shrinker: minimize a failing program while
preserving its failure class.

The oracle's :attr:`~repro.fuzz.oracle.Divergence.klass` strings (kind
+ µarch + differing field / violated invariant) define "the same bug";
a candidate reduction is accepted when it still produces at least one
of the original classes.  Reductions that no longer assemble (dangling
``imm_label``, out-of-range displacement, ...) simply fail the
predicate and are rejected.

Passes, in order of expected payoff:

1. drop self-modifying patches (and shrink the run count to match),
2. ddmin over the user instruction list — chunks first, then single
   items; a removed item's labels migrate to its successor so every
   branch target keeps resolving (the final ``hlt`` is never removed),
3. ddmin over the kernel stub (the trailing ``sysret`` is kept),
4. neutralize surviving instructions to single-byte nops,
5. truncate the data region.

Every oracle evaluation is counted against ``max_checks`` so shrinking
a pathological input stays time-boxed; the partially-shrunk program is
returned when the budget runs out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .oracle import DEFAULT_UARCHES, Verdict, check_program
from .program import FuzzProgram, InstrSpec, Item, Patch


@dataclass
class ShrinkResult:
    program: FuzzProgram
    checks: int
    items_before: int
    items_after: int

    @property
    def reduced(self) -> bool:
        return self.items_after < self.items_before


class _Budget:
    def __init__(self, limit: int) -> None:
        self.limit = limit
        self.used = 0

    @property
    def exhausted(self) -> bool:
        return self.used >= self.limit

    def spend(self) -> None:
        self.used += 1


def _without_items(items: Sequence[Item], removed: set[int]) -> tuple[Item, ...]:
    """Drop *removed* indices; their labels migrate to the next kept
    item (the caller guarantees the last index is never removed)."""
    out: list[Item] = []
    carry: list[str] = []
    for index, item in enumerate(items):
        if index in removed:
            carry.extend(item.labels)
            continue
        if carry:
            item = Item(instr=item.instr,
                        labels=tuple(carry) + item.labels)
            carry = []
        out.append(item)
    return tuple(out)


def _drop_user_items(program: FuzzProgram,
                     removed: set[int]) -> FuzzProgram:
    remap: dict[int, int] = {}
    kept = 0
    for index in range(len(program.user_items)):
        if index not in removed:
            remap[index] = kept
            kept += 1
    patches = tuple(
        Patch(before_run=p.before_run, index=remap[p.index], instr=p.instr)
        for p in program.patches if p.index not in removed)
    runs = program.runs if patches else 1
    # Secret-operand annotations are positional like patches: deleted
    # loads lose their annotation, surviving ones follow their item.
    secret_loads = tuple(
        (remap[index], byte) for index, byte in program.secret_loads
        if index not in removed)
    return program.with_(user_items=_without_items(program.user_items,
                                                   removed),
                         patches=patches, runs=runs,
                         secret_loads=secret_loads)


def _sweep(size: int, keep_last: bool, attempt, budget: _Budget) -> bool:
    """One left-to-right pass trying to remove chunks of *size*."""
    removed_any = False
    start = 0
    while not budget.exhausted:
        length = attempt.current_length()
        limit = length - 1 if keep_last else length
        if start >= limit:
            break
        stop = min(start + size, limit)
        if attempt(set(range(start, stop))):
            removed_any = True
            # indices shifted left; retry the same start
        else:
            start = stop
    return removed_any


class _ItemReducer:
    """Stateful removal attempt over one item list of the program."""

    def __init__(self, program: FuzzProgram, which: str,
                 predicate, budget: _Budget) -> None:
        self.program = program
        self.which = which
        self.predicate = predicate
        self.budget = budget

    def current_length(self) -> int:
        return len(getattr(self.program, self.which))

    def __call__(self, removed: set[int]) -> bool:
        if not removed:
            return False
        self.budget.spend()
        if self.which == "user_items":
            candidate = _drop_user_items(self.program, removed)
        else:
            items = _without_items(self.program.kernel_items, removed)
            candidate = self.program.with_(kernel_items=items)
        if self.predicate(candidate):
            self.program = candidate
            return True
        return False


def _reduce_items(program: FuzzProgram, which: str, keep_last: bool,
                  predicate, budget: _Budget) -> FuzzProgram:
    reducer = _ItemReducer(program, which, predicate, budget)
    size = max(1, reducer.current_length() // 2)
    while size >= 1 and not budget.exhausted:
        removed_any = _sweep(size, keep_last, reducer, budget)
        if size == 1:
            if not removed_any:
                break
            continue  # single-item pass again until one removes nothing
        size //= 2
    return reducer.program


def _drop_patches(program: FuzzProgram, predicate,
                  budget: _Budget) -> FuzzProgram:
    # All at once first, then one by one.
    if program.patches and not budget.exhausted:
        budget.spend()
        candidate = program.with_(patches=(), runs=1)
        if predicate(candidate):
            return candidate
    index = 0
    while index < len(program.patches) and not budget.exhausted:
        budget.spend()
        remaining = tuple(p for i, p in enumerate(program.patches)
                          if i != index)
        runs = (max(p.before_run for p in remaining) + 1) if remaining else 1
        candidate = program.with_(patches=remaining, runs=runs)
        if predicate(candidate):
            program = candidate
        else:
            index += 1
    return program


def _neutralize_items(program: FuzzProgram, predicate,
                      budget: _Budget) -> FuzzProgram:
    """Replace surviving instructions with single-byte nops."""
    patched = {p.index for p in program.patches}
    nop = InstrSpec("nop")
    for index in range(len(program.user_items) - 1):  # keep final hlt
        if budget.exhausted:
            break
        item = program.user_items[index]
        if item.instr == nop or index in patched:
            continue
        budget.spend()
        items = list(program.user_items)
        items[index] = Item(instr=nop, labels=item.labels)
        candidate = program.with_(
            user_items=tuple(items),
            secret_loads=tuple(entry for entry in program.secret_loads
                               if entry[0] != index))
        if predicate(candidate):
            program = candidate
    return program


def _truncate_data(program: FuzzProgram, predicate,
                   budget: _Budget) -> FuzzProgram:
    while program.data and not budget.exhausted:
        budget.spend()
        candidate = program.with_(data=program.data[:len(program.data) // 2])
        if predicate(candidate):
            program = candidate
        else:
            break
    return program


def shrink(program: FuzzProgram, verdict: Verdict, *,
           uarches: Sequence[str] = DEFAULT_UARCHES,
           invariants: bool = True,
           max_checks: int = 250) -> ShrinkResult:
    """Minimize *program* while at least one of *verdict*'s divergence
    classes keeps reproducing."""
    classes = set(verdict.classes)
    if not classes:
        raise ValueError("cannot shrink a passing program")
    budget = _Budget(max_checks)

    def predicate(candidate: FuzzProgram) -> bool:
        try:
            result = check_program(candidate, uarches,
                                   invariants=invariants)
        except Exception:
            return False  # malformed reduction: reject
        return bool(set(result.classes) & classes)

    items_before = len(program.user_items)
    program = _drop_patches(program, predicate, budget)
    program = _reduce_items(program, "user_items", True, predicate, budget)
    if program.kernel_items:
        program = _reduce_items(program, "kernel_items", True, predicate,
                                budget)
    program = _neutralize_items(program, predicate, budget)
    program = _truncate_data(program, predicate, budget)
    shrunk = program.with_(
        description=(program.description + " " if program.description
                     else "") + f"shrunk; classes: {sorted(classes)}")
    return ShrinkResult(program=shrunk, checks=budget.used,
                        items_before=items_before,
                        items_after=len(shrunk.user_items))


# -- relational (pair) shrinking -------------------------------------------


@dataclass
class PairShrinkResult:
    pair: "RelationalPair"
    checks: int
    items_before: int
    items_after: int

    @property
    def reduced(self) -> bool:
        return self.items_after < self.items_before


def shrink_pair(pair, verdict, *,
                uarches: Sequence[str] = DEFAULT_UARCHES,
                mitigation=None, max_checks: int = 250) -> PairShrinkResult:
    """Minimize a contract-violating pair while the violating
    contract+observer class keeps reproducing.

    Reuses the program passes (patches, ddmin, neutralize) with a
    pair-level predicate — every candidate runs both variants under the
    verdict's contract.  The data region is **not** truncated: the
    secret region is the relational input and must survive.  A final
    one-shot pass aligns ``secret_b`` with ``secret_a`` at every secret
    byte the shrunk program no longer reads, so the shipped pair
    differs only where it matters.
    """
    from .relational import check_pair  # local: avoid import cycle risk

    contract = verdict.contract
    classes = set(verdict.contract_classes) or set(verdict.classes)
    if not classes:
        raise ValueError("cannot shrink a contract-satisfying pair")
    budget = _Budget(max_checks)

    def pair_ok(candidate) -> bool:
        try:
            result = check_pair(candidate, contract, uarches,
                                mitigation=mitigation)
        except Exception:
            return False  # malformed reduction: reject
        return bool(set(result.classes) & classes)

    current = pair
    items_before = len(current.program.user_items)

    def predicate(candidate_program: FuzzProgram) -> bool:
        return pair_ok(current.with_(program=candidate_program))

    program = _drop_patches(current.program, predicate, budget)
    program = _reduce_items(program, "user_items", True, predicate, budget)
    if program.kernel_items:
        program = _reduce_items(program, "kernel_items", True, predicate,
                                budget)
    program = _neutralize_items(program, predicate, budget)
    current = current.with_(program=program)

    # Align unread secret bytes (one shot): keep b != a only at bytes
    # the surviving annotated loads consume.
    consumed = set(current.consumed)
    aligned = bytes(b if index in consumed else a
                    for index, (a, b)
                    in enumerate(zip(current.secret_a, current.secret_b)))
    if aligned != current.secret_b and not budget.exhausted:
        budget.spend()
        candidate = current.with_(secret_b=aligned)
        if pair_ok(candidate):
            current = candidate

    shrunk_program = current.program.with_(
        description=(current.program.description + " "
                     if current.program.description else "")
        + f"shrunk; classes: {sorted(classes)}")
    current = current.with_(program=shrunk_program)
    return PairShrinkResult(pair=current, checks=budget.used,
                            items_before=items_before,
                            items_after=len(shrunk_program.user_items))
