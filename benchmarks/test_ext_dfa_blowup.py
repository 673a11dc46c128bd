"""Extension bench (§1 motivation): the DFA state blow-up.

The paper's introduction motivates NFA-style enumeration hardware with
the classical trade-off: "DFAs are simple to execute ... but they could
quickly lead to exponentially blowing up the number of states", while
NFAs stay compact.  This bench quantifies that on the actual workloads:
the Cicero program stays linear in its pattern, while determinizing that
same program — the work-PC masks the engine's lazy DFA interns, taken
over every byte class — grows past any reasonable budget once the
bounded-gap motifs of Protomata are alternated.
"""

from collections import deque

from repro.compiler import compile_regex
from repro.vm.kernel import DispatchTables

from common import benchmark_data, format_table, print_banner

DFA_BUDGET = 3000


def dfa_states(program):
    """The reachable work-PC masks of ``program``'s step table (a state
    per mask; firing and dead transitions intern none, as in the lazy
    DFA), or ``None`` past :data:`DFA_BUDGET`."""
    tables = DispatchTables(program)
    seen = {tables.entry}
    queue = deque(seen)
    while queue:
        state = queue.popleft()
        for byte_class in range(tables.num_classes):
            successor = tables.step(state, byte_class) & tables.next_mask
            if successor in seen or not successor or successor >= tables.fires:
                continue
            if len(seen) == DFA_BUDGET:
                return None
            seen.add(successor)
            queue.append(successor)
    return len(seen)


def test_ext_dfa_blowup(benchmark):
    protomata = benchmark_data("protomata").patterns[:4]
    protomata4 = benchmark_data("protomata4").patterns[:2]

    def compute():
        rows = []
        for group, patterns in (("protomata", protomata), ("protomata4", protomata4)):
            for index, pattern in enumerate(patterns):
                program = compile_regex(pattern).program
                rows.append(
                    (f"{group}[{index}]", len(pattern), len(program),
                     dfa_states(program))
                )
        return rows

    rows = benchmark.pedantic(compute, rounds=1, iterations=1)

    print_banner(f"Extension — DFA blow-up (§1), budget {DFA_BUDGET} states")
    print(format_table(
        ["pattern", "Cicero instr", "DFA states", "blow-up"],
        [
            (name, instr,
             states if states is not None else f">{DFA_BUDGET}",
             "no" if states is not None else "yes")
            for name, _length, instr, states in rows
        ],
    ))

    # Cicero programs stay linear in the pattern...
    for name, length, instr, _states in rows:
        assert instr <= 2 * length, name
    # ...while both alternated patterns blow the DFA budget.
    assert all(row[3] is None for row in rows if row[0].startswith("protomata4"))
    # Every DFA that did fit is still larger than its program.
    for name, _length, instr, states in rows:
        if states is not None:
            assert states > instr, name
