"""Simulation time representation.

The kernel keeps time as a plain integer number of *time units*.  A time unit
is, by convention, one picosecond; the constants below let models write
``10 * NS`` instead of magic numbers.  Using integers keeps event ordering
exact (no floating point ties) and cheap to compare.
"""

#: One picosecond — the base resolution of the kernel.
PS = 1
#: One nanosecond expressed in base units.
NS = 1_000 * PS
