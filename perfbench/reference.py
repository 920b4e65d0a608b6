"""Independent reference for the benchmark's correctness checks.

Written from the paper's formulas with NumPy only; it imports nothing from
``reldep``.  Distances use direct differences (not the norm expansion), the
bandwidth is the exact median of the m(m-1)/2 pair distances taken from the
strict upper triangle, and the h-vector, variances, covariances and p-values
follow the paper's definitions.  ``selftest.py`` checks the h-vector here
against a brute-force enumeration of the order-4 kernel.

The ``check_*`` functions compare one library result with the reference and
return a list of problems; an empty list means the result is accepted.
"""

import math

import numpy as np

# Relative tolerances.  The library and this reference agree to ~1e-13.
REL_TOL = 1e-9
P_REL_TOL = 1e-6
# A power trial whose reference p lies this close to alpha may round either way.
P_EXCUSE = 1e-8
VARIANCE_FLOOR = 1e-12

_masks = {}


def synthetic(seed, m, gamma1=0.3, gamma2=0.3, gamma3=0.3):
    """The paper's synthetic triple (x, y, z) sharing one latent angle per row."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    t = rng.uniform(0.0, 2.0 * np.pi, size=m)
    noise = rng.standard_normal(size=(m, 6))
    curve = np.column_stack([t * np.cos(t), t * np.sin(t)])
    x = np.column_stack([t, np.sin(t)]) + gamma1 * noise[:, 0:2]
    return x, curve + gamma2 * noise[:, 2:4], curve + gamma3 * noise[:, 4:6]


def trial_seed(base_seed, *indices):
    """Per-trial stream seed of the synthetic experiments: hash of (seed, indices)."""
    ss = np.random.SeedSequence((base_seed,) + tuple(indices))
    return int(ss.generate_state(1, np.uint64)[0])


def sq_dists(x):
    """Squared Euclidean distances by direct coordinate differences."""
    x = np.asarray(x, dtype=np.float64)
    out = None
    for c in range(x.shape[1]):
        diff = np.subtract.outer(x[:, c], x[:, c])
        diff *= diff
        if out is None:
            out = diff
        else:
            out += diff
    return out


def median_distance(d2):
    """Exact median of the pairwise distances over the strict upper triangle."""
    m = d2.shape[0]
    if m not in _masks:
        _masks[m] = np.triu(np.ones((m, m), dtype=bool), 1)
    pool = d2[_masks[m]]
    n = pool.size
    if n % 2:
        return float(np.sqrt(np.partition(pool, n // 2)[n // 2]))
    part = np.partition(pool, [n // 2 - 1, n // 2])
    return float(0.5 * (np.sqrt(part[n // 2 - 1]) + np.sqrt(part[n // 2])))


def gram(x, sigma=None):
    """Zero-diagonal Gaussian Gram matrix and its bandwidth (median if None)."""
    d2 = sq_dists(x)
    if sigma is None:
        sigma = median_distance(d2)
    d2 /= -2.0 * sigma * sigma
    k = np.exp(d2, out=d2)
    np.fill_diagonal(k, 0.0)
    return k, sigma


def estimate(k, l, k1=None, l1=None):
    """Unbiased HSIC and the paper's per-observation h-vector.

    ``k1`` and ``l1`` are the row sums of K and L, if already known.
    """
    m = k.shape[0]
    kl_diag = np.einsum("ij,ij->i", k, l)  # row sums of K o L
    k1 = k.sum(axis=1) if k1 is None else k1
    l1 = l.sum(axis=1) if l1 is None else l1
    tr_kl, sk, sl, one_kl_one = kl_diag.sum(), k1.sum(), l1.sum(), k1 @ l1
    value = (tr_kl + sk * sl / ((m - 1) * (m - 2)) - 2.0 * one_kl_one / (m - 2)) / (
        m * (m - 3)
    )
    h = (
        (m - 2) ** 2 * kl_diag
        - m * k1 * l1
        + (m - 2) * (tr_kl - k @ l1 - l @ k1)
        + sl * k1
        + sk * l1
        - one_kl_one
    )
    return float(value), h


def covariance(values, hs, m):
    """Floored variances and clamped covariances of HSIC statistics on one sample.

    The paper's h-vector is twice the per-index sum of the order-4 kernel
    over ordered 3-tuples, hence the 4 in the normaliser.
    """
    mu = np.asarray(values)
    f = float((m - 1) * (m - 2) * (m - 3))
    stack = np.vstack(hs)
    cov = (16.0 / m) * (stack @ stack.T / (4.0 * m * f * f) - np.outer(mu, mu))
    var = np.maximum(np.diag(cov), VARIANCE_FLOOR)
    bound = np.sqrt(np.outer(var, var))
    cov = np.clip(cov, -bound, bound)
    np.fill_diagonal(cov, var)
    return cov


def upper_p(statistic, var):
    std = math.sqrt(max(var, VARIANCE_FLOOR))
    return std, 0.5 * math.erfc(statistic / std / math.sqrt(2.0))


def dependent(x, y, z, alpha=0.05):
    """Dependent relative test on the full sample."""
    kx, sx = gram(x)
    ky, sy = gram(y)
    kz, sz = gram(z)
    vxy, hxy = estimate(kx, ky)
    vxz, hxz = estimate(kx, kz)
    c = covariance([vxy, vxz], [hxy, hxz], x.shape[0])
    statistic = vxy - vxz
    std, p = upper_p(statistic, c[0, 0] + c[1, 1] - 2.0 * c[0, 1])
    return {"statistic": statistic, "std_dev": std, "p_value": p,
            "reject_null": p < alpha, "bandwidths": (sx, sy, sz)}


def independent(x, y, z, alpha=0.05):
    """Split-half baseline: rows [0, h) pair x with y, rows [h, 2h) x with z."""
    h = x.shape[0] // 2
    vals, variances = [], []
    for a, b in ((x[:h], y[:h]), (x[h:2 * h], z[h:2 * h])):
        v, hv = estimate(gram(a)[0], gram(b)[0])
        vals.append(v)
        variances.append(covariance([v], [hv], h)[0, 0])
    statistic = vals[0] - vals[1]
    std, p = upper_p(statistic, variances[0] + variances[1])
    return {"statistic": statistic, "std_dev": std, "p_value": p,
            "reject_null": p < alpha}


def generalized(arrays, bandwidths, pairs, weights, alpha=0.05):
    """Joint summary over the listed pairs and the weighted one-sided test."""
    grams = [gram(a, s)[0] for a, s in zip(arrays, bandwidths)]
    rows = [g.sum(axis=1) for g in grams]
    ests = [estimate(grams[a], grams[b], rows[a], rows[b]) for a, b in pairs]
    means = np.array([e[0] for e in ests])
    cov = covariance(means, [e[1] for e in ests], arrays[0].shape[0])
    w = np.asarray(weights, dtype=np.float64)
    statistic = float(w @ means)
    std, p = upper_p(statistic, float(w @ cov @ w))
    return {"means": means, "covariance": cov, "statistic": statistic,
            "std_dev": std, "p_value": p, "reject_null": p < alpha}


# ---------------------------------------------------------------------------
# Comparisons.
# ---------------------------------------------------------------------------


def _close(got, want, rel, what, problems):
    if not abs(got - want) <= rel * abs(want):
        problems.append(f"{what}: got {got!r}, reference {want!r}")


def _check_test(res, ref, method, problems):
    _close(res.statistic, ref["statistic"], REL_TOL, "statistic", problems)
    _close(res.std_dev, ref["std_dev"], REL_TOL, "std_dev", problems)
    if not abs(res.p_value - ref["p_value"]) <= P_REL_TOL * ref["p_value"] + 1e-300:
        problems.append(f"p_value: got {res.p_value!r}, reference {ref['p_value']!r}")
    if res.reject_null != ref["reject_null"]:
        problems.append(f"reject_null: got {res.reject_null}, reference {ref['reject_null']}")
    if res.method != method:
        problems.append(f"method: got {res.method!r}, expected {method!r}")


def check_dependent(res, ref, m):
    """Problems with a library dependent-test result, or [] if it matches."""
    problems = []
    _check_test(res, ref, "dependent", problems)
    if res.m != m:
        problems.append(f"m: got {res.m}, expected {m}")
    info = res.kernel_info or {}
    for name, want in zip("xyz", ref["bandwidths"]):
        got = (info.get(name) or {}).get("bandwidth")
        if not isinstance(got, float):
            problems.append(f"bandwidth {name}: missing")
        else:
            _close(got, want, REL_TOL, f"bandwidth {name}", problems)
    return problems


def check_generalized(summary, res, ref):
    """Problems with a joint summary plus generalized-test result, or []."""
    problems = []
    means, cov = np.asarray(summary.means), np.asarray(summary.covariance)
    if means.shape != ref["means"].shape or cov.shape != ref["covariance"].shape:
        return [f"summary shapes {means.shape}, {cov.shape} do not match reference"]
    scale = np.abs(ref["means"]).max()
    if not np.all(np.abs(means - ref["means"]) <= REL_TOL * scale):
        problems.append("means differ from reference")
    sd = np.sqrt(np.diag(ref["covariance"]))
    if not np.all(np.abs(cov - ref["covariance"]) <= REL_TOL * np.outer(sd, sd)):
        problems.append("covariance differs from reference")
    _check_test(res, ref, "generalized", problems)
    return problems


def power_p_values(grid, m, base_seed, trials, alpha):
    """Reference p-values of every trial of a power curve, per grid value.

    Trial (gi, t) of power_curve draws its sample from the stream seed
    ``trial_seed(base_seed, gi, t)``.
    """
    out = []
    for gi, g3 in enumerate(grid):
        ps = {"dependent": [], "independent": []}
        for t in range(trials):
            x, y, z = synthetic(trial_seed(base_seed, gi, t), m, gamma3=g3)
            ps["dependent"].append(dependent(x, y, z, alpha)["p_value"])
            ps["independent"].append(independent(x, y, z, alpha)["p_value"])
        out.append(ps)
    return out


def check_power(table, grid, m, trials, alpha, p_values):
    """Rejection counts of a power table against the reference's p-values.

    ``p_values`` is what ``power_p_values`` returns for the same call.  A
    trial whose reference p is within ``P_EXCUSE`` of alpha may count either
    way.
    """
    problems = []
    if len(table.rows) != len(grid):
        return [f"power table has {len(table.rows)} rows, grid has {len(grid)}"]
    for gi, (row, g3, ps) in enumerate(zip(table.rows, grid, p_values)):
        if (row.gamma3, row.trials, row.alpha, row.m) != (g3, trials, alpha, m):
            problems.append(f"row {gi}: header fields differ")
            continue
        for method, power in (("dependent", row.power_dependent),
                              ("independent", row.power_independent)):
            got = round(power * trials)
            lo = sum(p < alpha - P_EXCUSE for p in ps[method])
            hi = sum(p < alpha + P_EXCUSE for p in ps[method])
            if not lo <= got <= hi:
                problems.append(
                    f"gamma3={g3} {method}: {got} rejections, reference {lo}..{hi}"
                )
    return problems
