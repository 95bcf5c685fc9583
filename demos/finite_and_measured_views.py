#!/usr/bin/env python3
"""Two ways to make the chaotic map finite, and what each one costs.

On a finite grid the dynamics is exact and deterministic, sensitivity
disappears (closeness below half the grid spacing is equality), and every
orbit is eventually periodic.  Through a d-digit measuring device the
dynamics instead becomes nondeterministic: one readout can be followed by
several, and the successor relation -- being finite -- is still entirely
computable.
"""

from exactdyn import baker, grid, readout
from exactdyn.rational import format_rational


def main() -> None:
    print("== really discrete: the map on the grid {i/10} ==")
    for i, j in grid.table(10):
        print(f"  {i:2d}/10 -> {j:2d}/10")
    orbit, entry, length = grid.orbit_with_cycle(grid.GridState(10, 3))
    print(f"  orbit of 3/10: {orbit}, cycle of length {length} entered at step {entry}")
    eta = grid.min_separation(10)
    print(f"  states closer than {format_rational(eta)} are equal: no sensitivity left")

    print("\n== measured: a 3-digit device makes the step a relation ==")
    for text in ("0.000", "0.500", "0.999", "1.000"):
        m = readout.parse_readout(text, 3)
        succ = readout.successors(m)
        print(f"  {m.text} can be followed by {{{', '.join(succ.texts())}}}")

    print("\n  witnesses: a concrete position behind each possibility")
    m = readout.parse_readout("0.000", 3)
    for target, x in readout.successor_witnesses(m).items():
        image = readout.measure(baker.step(x), 3)
        print(f"    start at {format_rational(x)} -> reads {image.text} (target index {target})")

    print("\n== what the device may show n steps after 0.000 ==")
    for n in range(7):
        texts = readout.reach(m, n).texts()
        shown = ", ".join(texts[:8]) + (", ..." if len(texts) > 8 else "")
        print(f"  n={n}: {len(texts):3d} readouts  [{shown}]")
    print("  uncertainty doubles each step: nondeterminism, not sensitivity")


if __name__ == "__main__":
    main()
