"""Published reference values that the reproduction checks compare against.

The policy table and path rows correspond to the bundled table3_2 / table3_3
scenarios; the bracket table to table3_4. Wage rows are indexed 0.0..1.0 in
steps of 0.1, periods 1..10.

A note on the table3_2/table3_3 parameter files: the published caption for
these tables lists gamma = 0.3, beta = 0.7, delta = 0.95 (and two conflicting
alpha values). No dynamic program reproduces the printed cells at those
values, while gamma = 0.4, beta = 0.6, delta = 0.90 reproduces 103 of 110
cells exactly, the highlighted path, and the terminal-column structure
(the zero-wage final-period cell pins beta/(beta+gamma) = 0.6 under any
timing). The bundled scenarios therefore carry the reconstructed parameters,
and the scenario JSONs are the one store of parameters; criterion 1's
warning in the reproduction report quotes the caption values.
"""
from __future__ import annotations

# rows: previous wage 0.0, 0.1, ..., 1.0; columns: period 1..10
POLICY_TABLE_3_2: tuple[tuple[float, ...], ...] = (
    (1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.9, 0.9, 0.6),
    (0.9, 0.9, 0.8, 0.8, 0.8, 0.8, 0.8, 0.7, 0.5, 0.0),
    (0.8, 0.7, 0.7, 0.7, 0.7, 0.7, 0.6, 0.5, 0.3, 0.0),
    (0.7, 0.6, 0.6, 0.6, 0.6, 0.6, 0.5, 0.4, 0.2, 0.0),
    (0.6, 0.6, 0.6, 0.5, 0.5, 0.5, 0.4, 0.3, 0.1, 0.0),
    (0.5, 0.5, 0.5, 0.5, 0.4, 0.4, 0.3, 0.2, 0.1, 0.0),
    (0.4, 0.4, 0.4, 0.4, 0.4, 0.3, 0.3, 0.2, 0.1, 0.0),
    (0.3, 0.3, 0.3, 0.3, 0.3, 0.3, 0.2, 0.2, 0.1, 0.0),
    (0.3, 0.3, 0.3, 0.3, 0.2, 0.2, 0.2, 0.1, 0.1, 0.0),
    (0.2, 0.2, 0.2, 0.2, 0.2, 0.2, 0.1, 0.1, 0.1, 0.0),
    (0.1, 0.2, 0.2, 0.2, 0.2, 0.1, 0.1, 0.1, 0.1, 0.0),
)

# the highlighted always-sampled trace from w0 = 0.4
PATH_TABLE_3_3_EFFORT = (0.6, 0.4, 0.6, 0.4, 0.5, 0.4, 0.4, 0.3, 0.2, 0.0)
PATH_TABLE_3_3_WAGE = PATH_TABLE_3_3_EFFORT
# bonus row as published; signs in periods 2-4 disagree with the bonus rule
# alpha*(e_t - w_{t-1}) applied to the published efforts (see the report)
PATH_TABLE_3_3_BONUS_PRINTED = (0.02, 0.02, -0.02, 0.02, 0.01, -0.01, 0.0, -0.01, -0.01, None)

# wage-bracket masses per period column; key = bracket row label
BRACKETS_TABLE_3_4: dict[int, dict[str, float]] = {
    1: {"0.4-0.5": 1.00},
    2: {"0.4-0.5": 0.80, "0.5-0.6": 0.20},
    3: {"0.3-0.4": 0.04, "0.4-0.5": 0.64, "0.5-0.6": 0.32},
    4: {"0.3-0.4": 0.10, "0.4-0.5": 0.51, "0.5-0.6": 0.39},
    5: {"0.3-0.4": 0.16, "0.4-0.5": 0.51, "0.5-0.6": 0.33},
    6: {"0.3-0.4": 0.19, "0.4-0.5": 0.54, "0.5-0.6": 0.27},
    7: {"0.2-0.3": 0.05, "0.3-0.4": 0.20, "0.4-0.5": 0.54, "0.5-0.6": 0.21},
    8: {"0.2-0.3": 0.09, "0.3-0.4": 0.30, "0.4-0.5": 0.44, "0.5-0.6": 0.17},
    9: {"0.1-0.2": 0.03, "0.2-0.3": 0.22, "0.3-0.4": 0.26, "0.4-0.5": 0.35,
        "0.5-0.6": 0.14},
    10: {"0-0.1": 0.15, "0.1-0.2": 0.07, "0.2-0.3": 0.18, "0.3-0.4": 0.21,
         "0.4-0.5": 0.28, "0.5-0.6": 0.11},
}

# one-period employer optimum at k = 1.5, c = 0.3, unit wage scale
EMPLOYER_OPTIMUM_REFERENCE = dict(alpha=0.341641, p=0.618034, w0=0.458359)
