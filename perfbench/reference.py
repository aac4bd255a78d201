"""Fixed reference program: the benchmark's yardstick of host speed.

Usage: python3 perfbench/reference.py

It imports only the standard library, so no change to cayley_lift moves
its time.  run.py starts it in a cold process next to every measured child
and divides the child's time by the reference's; the speed of a shared host
swings by tens of percent over seconds and minutes, and the ratio of two
neighbouring cold processes swings far less.
"""

from fractions import Fraction

total = Fraction(0)
table = {}
for i in range(1, 20000):
    total += Fraction(i % 7, i % 5 + 1)
    table[(i, i % 3)] = total
