"""Published cells for the acceptance suite, and the run that computes each.

The EX*, CASCADE_* and ROPT_* groups are cells of the published tables.
Beside its values, each has its recipe in ``RECIPES``: the arguments of
:func:`cells` (the ``run_report`` sweep behind ``spgrid table``) that its
key does not give.  The suite pins every cell at its stated tolerance and
marks the groups that the stated constructions cannot reproduce as strict
expected failures, whose reasons say why, rather than loosening any
tolerance.  The LAYER_* and CHOOSE_R_* values come from ``layer_report``
and ``choose_r``; the layer counts reproduce bit for bit.
"""

import spgrid as sp

SIZES = (8, 16, 32, 64)
RECIPES = {}


def cells(problem, algorithm, family, eps, n_list=SIZES, step=None, **config):
    """The rows of one step (the last by default) of the ``run_report`` sweep
    of one (family, eps) over ``n_list``; ``config`` holds the remaining
    ``ReportConfig`` fields.  A failed cell is an error."""
    report = sp.run_report(sp.ReportConfig(
        problem=problem, families=(family,), eps_list=(eps,), n_list=n_list,
        algorithm=algorithm, **config))
    assert report.failed_cells() == 0
    step = report.rows[-1].step if step is None else step
    return [row for row in report.rows if row.step == step]


# --- layer-point percentages (eps = 2^-8, q = 0.4) -------------------------
# grading strengths that reproduce the published counts: a = 1 for the
# rational (V) family, a = 4 for the logarithmic (B) family
LAYER_COARSE_SIZES = [8, 16, 32, 64]
LAYER_FINE_SIZES = [64, 256, 1024, 4096]
LAYER_TABLE = {
    ("shishkin", 1): [25.0, 12.5, 12.5, 6.25],
    ("shishkin", 2): [6.25, 4.6875, 3.7109375, 3.02734375],
    ("vulanovic", 1): [50.0, 50.0, 43.75, 40.625],
    ("vulanovic", 2): [40.625, 40.625, 40.0390625, 40.0390625],
    ("bakhvalov", 1): [25.0, 25.0, 18.75, 18.75],
    ("bakhvalov", 2): [18.75, 17.96875, 17.7734375, 17.724609375],
}
LAYER_TABLE_PRINTED = {
    ("shishkin", 1): ["25", "12.5", "12.5", "6.25"],
    ("shishkin", 2): ["6.25", "4.69", "3.71", "3.03"],
    ("vulanovic", 1): ["50", "50", "43.75", "40.63"],
    ("vulanovic", 2): ["40.63", "40.63", "40.04", "40.04"],
    ("bakhvalov", 1): ["25", "25", "18.75", "18.75"],
    ("bakhvalov", 2): ["18.75", "17.97", "17.77", "17.72"],
}

# --- example 1, direct nonlinear solve (step 1), N = 8, 16, 32, 64 ---------
# keyed (family, a, eps), as are all example-1 groups
EX1_STEP1 = {
    ("bakhvalov", 4.0, 1e-2): [5.810e-2, 1.380e-2, 3.400e-3, 8.491e-4],
    ("bakhvalov", 4.0, 1e-4): [5.810e-2, 1.380e-2, 3.400e-3, 8.491e-4],
    ("vulanovic", 1.0, 1e-2): [1.368e-1, 2.090e-2, 5.900e-3, 1.500e-3],
    ("vulanovic", 1.0, 1e-4): [1.493e-1, 2.220e-2, 5.900e-3, 1.500e-3],
    ("shishkin", 1.0, 1e-2): [7.460e-2, 3.920e-2, 1.480e-2, 5.300e-3],
    ("shishkin", 1.0, 1e-4): [7.460e-2, 3.920e-2, 1.480e-2, 5.300e-3],
}
EX1_STEP1_ORDERS = {
    ("bakhvalov", 4.0, 1e-2): [2.0739, 2.0211, 2.0016],
    ("shishkin", 1.0, 1e-2): [0.9283, 1.4053, 1.4815],
}
RECIPES["EX1_STEP1"] = RECIPES["EX1_STEP1_ORDERS"] = dict(
    problem="ex1", algorithm="direct", step=1)

# --- example 1, two-grid step 2 with n = N^2 --------------------------------
EX1_STEP2 = {
    ("bakhvalov", 4.0, 1e-2): [1.700e-3, 8.720e-5, 5.323e-6, 3.317e-7],
    ("vulanovic", 1.0, 1e-2): [4.600e-3, 2.051e-4, 1.246e-5, 7.363e-7],
    ("vulanovic", 1.0, 1e-4): [5.400e-3, 2.170e-4, 1.248e-5, 7.363e-7],
    ("shishkin", 1.0, 1e-2): [7.000e-3, 1.100e-3, 1.299e-4, 1.298e-5],
}
RECIPES["EX1_STEP2"] = dict(problem="ex1", algorithm="tg1", step=2)

# --- example 1 cascade (rational mesh, a = 3), step-3 orders at eps = 1e-1 --
CASCADE_STEP3_ORDERS = [7.9299, 7.9533]
CASCADE_STEP3_N16 = 1.113e-10
RECIPES["CASCADE_STEP3_ORDERS"] = RECIPES["CASCADE_STEP3_N16"] = dict(
    problem="ex1", algorithm="tg2", step=3, family="vulanovic", eps=1e-1,
    n_list=(4, 8, 16), a=3.0)

# --- example 2, two-grid step 2 (a = 2), keyed (family, eps) ---------------
EX2_STEP2 = {
    ("vulanovic", 1e-2): [2.056e-3, 1.148e-4, 6.971e-6, 4.368e-7],
    ("vulanovic", 1e-4): [1.935e-3, 1.168e-4, 7.087e-6, 4.444e-7],
    ("bakhvalov", 1e-2): [5.069e-4, 3.051e-5, 1.677e-6, 1.032e-7],
    ("bakhvalov", 1e-4): [8.857e-4, 6.401e-5, 4.009e-6, 2.401e-7],
}
RECIPES["EX2_STEP2"] = dict(problem="ex2", algorithm="tg1", step=2, a=2.0)

# --- cost-balancing exponent table ------------------------------------------
CHOOSE_R_PRINTED = {8: 1.9752, 16: 1.8550, 32: 1.8131, 64: 1.7984}
ROPT_ORDERS_PRINTED = [2.8931, 3.0180, 3.0968]
RECIPES["ROPT_ORDERS_PRINTED"] = dict(
    problem="ex2", algorithm="tg1_ropt", step=2, family="shishkin", eps=1e-1)
