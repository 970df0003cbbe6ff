"""Independent reference for the benchmark's correctness checks.

Nothing here imports ``quasistar``: every family, matrix and radius is
rebuilt from the paper's definitions so that a fault shared by the program's
layers cannot also hide in the check.

* Connected threshold families come from a subset walk over creation
  sequences (position i contributes i-1 edges when it is dominating).
* ``S(n,m)`` and ``S~(n,m)`` are assembled as graphs from their formulas
  (``K_k v (K_{1,a} u isolated)`` and ``K_k v (K_3 u isolated)``) and read
  back as creation sequences by peeling isolated/dominating vertices.
* All graphs on n <= 7 vertices, up to isomorphism, come from vertex
  augmentation with a canonical form that is the *largest* edge code over
  all relabelings.
* Radii are the top eigenvalue of ``alpha*D + (1-alpha)*A`` from batched
  ``numpy.linalg.eigvalsh``.
* Thresholdness is the forbidden-induced-subgraph test (no 2K_2, P_4, C_4).

The ``check_*`` functions take the program's output lines and return a list
of problems; an empty list means the output agrees with the reference.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations

import numpy as np

#: Radii, tie gaps and maxima must agree with the reference within this.
TOL = 1e-9
#: Rewiring certificates: allowed radius decrease and identity residual.
MONOTONE_SLACK = 1e-10
IDENTITY_TOL = 1e-8

_BATCH = 1024


# ---------------------------------------------------------------------------
# Creation sequences and threshold families
# ---------------------------------------------------------------------------

def connected_creations(n: int, m: int) -> list[str]:
    """Creation strings ('I'/'D') of the connected threshold graphs (n, m).

    The first symbol is 'I' and the last 'D'; a 'D' at 1-based position i
    joins the new vertex to all i-1 earlier ones.
    """
    if n == 1:
        return ["I"] if m == 0 else []
    out = []
    # reach[i] = most edges positions i..n-1 can still add
    reach = [0] * (n + 1)
    for i in range(n - 1, 1, -1):
        reach[i] = reach[i + 1] + (i - 1)

    def walk(i: int, need: int, syms: list[str]) -> None:
        if need < 0 or need > reach[i]:
            return
        if i == n:
            out.append("I" + "".join(syms) + "D")
            return
        syms.append("D")
        walk(i + 1, need - (i - 1), syms)
        syms[-1] = "I"
        walk(i + 1, need, syms)
        syms.pop()

    walk(2, m - (n - 1), [])
    return out


def creation_adjacency(seq: str) -> np.ndarray:
    """0/1 adjacency in creation order: i ~ j iff the later one is 'D'."""
    d = np.array([c == "D" for c in seq])
    n = len(seq)
    later = np.maximum.outer(np.arange(n), np.arange(n))
    adj = d[later].astype(float)
    np.fill_diagonal(adj, 0.0)
    return adj


def peel_creation(adj: np.ndarray) -> str | None:
    """Creation string of a graph by peeling; None if it is not threshold."""
    adj = np.asarray(adj) > 0
    alive = list(range(adj.shape[0]))
    syms = []
    while len(alive) > 1:
        sub = adj[np.ix_(alive, alive)]
        deg = sub.sum(axis=1)
        if (deg == len(alive) - 1).any():
            v = alive[int(np.argmax(deg == len(alive) - 1))]
            syms.append("D")
        elif (deg == 0).any():
            v = alive[int(np.argmax(deg == 0))]
            syms.append("I")
        else:
            return None
        alive.remove(v)
    syms.append("I")
    return "".join(reversed(syms))


def _join_union(clique: int, rest: np.ndarray) -> np.ndarray:
    """K_clique joined to the graph ``rest``."""
    r = rest.shape[0]
    n = clique + r
    adj = np.ones((n, n))
    adj[clique:, clique:] = rest
    np.fill_diagonal(adj, 0.0)
    return adj


def quasi_star(n: int, m: int) -> str:
    """S(n,m) = K_k v (K_{1,a} u (n-k-a-1)K_1), k largest with sum_{i<=k}(n-i) <= m."""
    k, used = 0, 0
    while k < n - 1 and used + (n - k - 1) <= m:
        used += n - k - 1
        k += 1
    a = m - used
    rest = np.zeros((n - k, n - k))
    rest[0, 1 : a + 1] = rest[1 : a + 1, 0] = 1.0
    return peel_creation(_join_union(k, rest))


def tilde_s(n: int, m: int) -> str | None:
    """S~(n,m) = K_k v (K_3 u (n-k-3)K_1) with m = kn - k(k+1)/2 + 3, if defined."""
    for k in range(0, n - 2):
        if k * n - k * (k + 1) // 2 + 3 == m:
            rest = np.zeros((n - k, n - k))
            rest[:3, :3] = 1.0
            np.fill_diagonal(rest, 0.0)
            return peel_creation(_join_union(k, rest))
    return None


def is_threshold(adj: np.ndarray) -> bool:
    """No induced 2K_2 (2 edges), P_4 (3 edges, path) or C_4 (4-cycle)."""
    adj = np.asarray(adj) > 0
    for quad in combinations(range(adj.shape[0]), 4):
        sub = adj[np.ix_(quad, quad)]
        edges = int(sub.sum()) // 2
        degs = sorted(int(x) for x in sub.sum(axis=1))
        if (edges, degs) in ((2, [1, 1, 1, 1]), (3, [1, 1, 2, 2]), (4, [2, 2, 2, 2])):
            return False
    return True


# ---------------------------------------------------------------------------
# Radii
# ---------------------------------------------------------------------------

def alpha_matrices(adj: np.ndarray, alpha) -> np.ndarray:
    """Stack of alpha*D + (1-alpha)*A for a stack of 0/1 adjacencies."""
    a = float(Fraction(alpha))
    adj = np.asarray(adj, dtype=float)
    mats = (1.0 - a) * adj
    diag = np.arange(adj.shape[-1])
    mats[..., diag, diag] = a * adj.sum(axis=-1)
    return mats


def radii(adj: np.ndarray, alpha) -> np.ndarray:
    """Largest eigenvalue of alpha*D + (1-alpha)*A for each adjacency."""
    adj = np.asarray(adj, dtype=float)
    out = np.empty(adj.shape[0])
    for lo in range(0, adj.shape[0], _BATCH):
        out[lo : lo + _BATCH] = np.linalg.eigvalsh(alpha_matrices(adj[lo : lo + _BATCH], alpha))[:, -1]
    return out


def scan(keys, rhos):
    """(rho_max, maximizer set, tie gap) with the 1e-9 maximizer window."""
    rhos = np.asarray(rhos)
    best = float(rhos.max())
    inside = rhos >= best - TOL
    maximizers = frozenset(k for k, hit in zip(keys, inside) if hit)
    gap = best - float(rhos[~inside].max()) if (~inside).any() else math.inf
    return best, maximizers, gap


@lru_cache(maxsize=None)
def threshold_scan(n: int, m: int, alpha: Fraction):
    """Reference scan of the connected threshold family (n, m) at alpha."""
    seqs = connected_creations(n, m)
    adj = np.stack([creation_adjacency(s) for s in seqs])
    return scan(seqs, radii(adj, alpha))


# ---------------------------------------------------------------------------
# All graphs on n <= 7 vertices up to isomorphism
# ---------------------------------------------------------------------------
#
# A graph is an integer edge code: pair (i, j), i < j, is bit j(j-1)/2 + i, so
# the pairs among the first n-1 vertices keep their bits when a vertex is
# added.  The canonical code is the maximum over all vertex relabelings.

def _bit(i: int, j: int) -> int:
    if i > j:
        i, j = j, i
    return j * (j - 1) // 2 + i


@lru_cache(maxsize=None)
def _relabel_weights(n: int) -> np.ndarray:
    pairs = [(i, j) for j in range(n) for i in range(j)]
    perms = list(permutations(range(n)))
    w = np.empty((len(perms), len(pairs)))
    for r, perm in enumerate(perms):
        for e, (i, j) in enumerate(pairs):
            w[r, e] = float(1 << _bit(perm[i], perm[j]))
    return w


def canonical(codes, n: int) -> list[int]:
    """Canonical (largest relabeled) edge code of each code on n vertices."""
    npairs = n * (n - 1) // 2
    if npairs == 0:
        return [0 for _ in codes]
    w = _relabel_weights(n)
    out = []
    codes = list(codes)
    for lo in range(0, len(codes), 256):
        block = np.array(codes[lo : lo + 256], dtype=np.int64)
        bits = ((block[None, :] >> np.arange(npairs)[:, None]) & 1).astype(float)
        out.extend(int(v) for v in (w @ bits).max(axis=0))
    return out


@lru_cache(maxsize=None)
def graph_classes(n: int) -> tuple[int, ...]:
    """Canonical codes of every graph on n vertices, one per class."""
    if n == 1:
        return (0,)
    shift = (n - 1) * (n - 2) // 2
    grown = [g | (s << shift) for g in graph_classes(n - 1) for s in range(1 << (n - 1))]
    return tuple(sorted(set(canonical(grown, n))))


def code_adjacency(code: int, n: int) -> np.ndarray:
    adj = np.zeros((n, n))
    for j in range(n):
        for i in range(j):
            if code >> _bit(i, j) & 1:
                adj[i, j] = adj[j, i] = 1.0
    return adj


def is_connected(adj: np.ndarray) -> bool:
    n = adj.shape[0]
    seen = np.zeros(n, dtype=bool)
    seen[0] = True
    for _ in range(n):
        grown = seen | (adj[seen].sum(axis=0) > 0)
        if (grown == seen).all():
            break
        seen = grown
    return bool(seen.all())


@lru_cache(maxsize=None)
def connected_classes(n: int) -> dict[int, tuple[int, ...]]:
    """Connected classes on n vertices, keyed by edge count."""
    by_m: dict[int, list[int]] = {}
    for code in graph_classes(n):
        if is_connected(code_adjacency(code, n)):
            by_m.setdefault(bin(code).count("1"), []).append(code)
    return {m: tuple(codes) for m, codes in by_m.items()}


@lru_cache(maxsize=None)
def all_graph_scan(n: int, m: int, alpha: Fraction):
    """Reference scan over connected classes (n, m); keys are canonical codes."""
    codes = connected_classes(n).get(m, ())
    adj = np.stack([code_adjacency(c, n) for c in codes])
    return scan(codes, radii(adj, alpha))


def edge_key_code(key: str, n: int) -> int:
    """Edge code of a key like '12.13.23' (1-based single-digit labels)."""
    code = 0
    if key != "-":
        for pair in key.split("."):
            code |= 1 << _bit(int(pair[0]) - 1, int(pair[1]) - 1)
    return code


# ---------------------------------------------------------------------------
# Verification records
# ---------------------------------------------------------------------------

def parse_record(line: str) -> dict:
    """Fields of ``family=H,n=..,m=..,alpha=.. rho=.. maximizers=.. tie_gap=.. ok=..``."""
    fields = {}
    for token in line.split(" "):
        for part in token.split(","):
            key, _, value = part.partition("=")
            fields[key] = value
    return {
        "family": fields["family"],
        "n": int(fields["n"]),
        "m": int(fields["m"]),
        "alpha": Fraction(fields["alpha"]),
        "rho": float(fields["rho"]),
        "maximizers": [k for k in fields["maximizers"].split(";") if k],
        "tie_gap": float(fields["tie_gap"]),
        "ok": fields["ok"],
    }


def _close(x: float, y: float) -> bool:
    if math.isinf(x) or math.isinf(y):
        return x == y
    return abs(x - y) <= TOL


def _records(lines, expected_keys, where):
    """Parse records and match them one to one, in order, with expected keys."""
    problems, records = [], []
    for i, line in enumerate(lines):
        try:
            records.append(parse_record(line))
        except (KeyError, ValueError, IndexError) as exc:
            problems.append(f"{where}: unparsable record {i + 1}: {line!r} ({exc})")
            return problems, []
    keys = [(r["n"], r["m"], r["alpha"]) for r in records]
    if keys != list(expected_keys):
        missing = sorted(set(expected_keys) - set(keys))
        extra = sorted(set(keys) - set(expected_keys))
        problems.append(
            f"{where}: records {len(keys)} vs expected {len(expected_keys)}; "
            f"missing {missing[:3]} extra {extra[:3]}"
        )
        return problems, []
    return problems, records


def band_keys(r: int, n: int, alphas) -> list[tuple[int, int, Fraction]]:
    lo = (r - 1) * n - r * (r - 1) // 2
    hi = r * n - r * (r + 1) // 2
    return [(n, m, Fraction(a)) for m in range(lo + 1, hi + 1) for a in alphas]


def band_graph_count(r: int, n: int, alphas) -> int:
    """Radii a clique-band verdict consumes: one per family member and alpha."""
    return sum(len(connected_creations(nn, m)) for nn, m, _ in band_keys(r, n, alphas))


def check_band(lines, r: int, n: int, alphas) -> list[str]:
    """Clique-band records against the reference scan and the prediction.

    Prediction: maximizers {S(n,m)}, and {S, S~} at alpha = 1/2 where S~ is
    defined and connected.
    """
    problems, records = _records(lines, band_keys(r, n, alphas), "band")
    for rec in records:
        where = f"band n={rec['n']} m={rec['m']} alpha={rec['alpha']}"
        rho, maxers, gap = threshold_scan(rec["n"], rec["m"], rec["alpha"])
        problems.extend(_compare(where, rec, rho, set(rec["maximizers"]), maxers, gap))
        expected = {quasi_star(rec["n"], rec["m"])}
        twin = tilde_s(rec["n"], rec["m"])
        if rec["alpha"] == Fraction(1, 2) and twin is not None and twin.endswith("D"):
            expected.add(twin)
        if set(rec["maximizers"]) != expected:
            problems.append(f"{where}: maximizers {sorted(rec['maximizers'])} != predicted {sorted(expected)}")
    return problems


def dominance_keys(n_values, alphas) -> list[tuple[int, int, Fraction]]:
    return [
        (n, m, Fraction(a))
        for n in n_values
        for m in range(n - 1, n * (n - 1) // 2 + 1)
        for a in alphas
    ]


def dominance_graph_count(n_values, alphas) -> int:
    """Radii a dominance verdict consumes: every connected class plus every
    connected threshold graph, per (n, m, alpha)."""
    return sum(
        len(connected_classes(n).get(m, ())) + len(connected_creations(n, m))
        for n, m, _ in dominance_keys(n_values, alphas)
    )


def check_dominance(lines, n_values, alphas) -> list[str]:
    """Threshold-dominance records against the all-graph reference scan.

    Every maximizer must be threshold, the threshold-family maximum must equal
    the all-graph maximum, and the maximizer classes must be exactly the
    reference's (compared up to isomorphism).
    """
    problems, records = _records(lines, dominance_keys(n_values, alphas), "dominance")
    for rec in records:
        n, m, alpha = rec["n"], rec["m"], rec["alpha"]
        where = f"dominance n={n} m={m} alpha={alpha}"
        rho, maxers, gap = all_graph_scan(n, m, alpha)
        got = canonical([edge_key_code(k, n) for k in rec["maximizers"]], n)
        if len(set(got)) != len(got):
            problems.append(f"{where}: isomorphic maximizers listed twice: {rec['maximizers']}")
        problems.extend(_compare(where, rec, rho, set(got), maxers, gap))
        for key in rec["maximizers"]:
            if not is_threshold(code_adjacency(edge_key_code(key, n), n)):
                problems.append(f"{where}: maximizer {key} is not a threshold graph")
        thr_rho = threshold_scan(n, m, alpha)[0]
        if abs(thr_rho - rho) > TOL:
            problems.append(f"{where}: threshold maximum {thr_rho!r} != all-graph maximum {rho!r}")
    return problems


def _compare(where, rec, rho, got_set, ref_set, gap) -> list[str]:
    problems = []
    if abs(rec["rho"] - rho) > TOL:
        problems.append(f"{where}: rho {rec['rho']!r} != reference {rho!r}")
    if got_set != set(ref_set):
        problems.append(f"{where}: maximizers {sorted(map(str, got_set))} != reference {sorted(map(str, ref_set))}")
    if not _close(rec["tie_gap"], gap):
        problems.append(f"{where}: tie_gap {rec['tie_gap']!r} != reference {gap!r}")
    if rec["ok"] != "1":
        problems.append(f"{where}: record reports ok={rec['ok']}")
    return problems


# ---------------------------------------------------------------------------
# Rewiring certificates
# ---------------------------------------------------------------------------
#
# Indices refer to the stepwise matrix: vertices sorted by non-increasing
# degree.  Equal-degree vertices of a threshold graph are twins, so this
# matrix does not depend on how ties are broken.

def stepwise_adjacency(seq: str) -> np.ndarray:
    adj = creation_adjacency(seq)
    order = np.argsort(-adj.sum(axis=1), kind="stable")
    return adj[np.ix_(order, order)]


def spec_cells(kind: str, p: int, q: int, h: int, k: int, l: int):
    """(removed, added) 1-based cells of a rewiring."""
    if kind == "BASIC":
        return [(h, k)], [(p, q)]
    if kind == "ROW":
        return [(h, k + j) for j in range(l + 1)], [(p - j, q) for j in range(l + 1)]
    return [(h - j, k) for j in range(l + 1)], [(p, q - j) for j in range(l + 1)]


def rewired(adj: np.ndarray, spec) -> np.ndarray | None:
    """Apply a rewiring to a stepwise matrix; None unless every removed cell
    is an edge and every added cell a non-edge."""
    out = adj.copy()
    removed, added = spec_cells(*spec)
    for cells, have, put in ((removed, 1.0, 0.0), (added, 0.0, 1.0)):
        for u, v in cells:
            if out[u - 1, v - 1] != have:
                return None
            out[u - 1, v - 1] = out[v - 1, u - 1] = put
    return out


def is_stepwise(adj: np.ndarray) -> bool:
    """Every 1 below the diagonal has a 1 to its left and a 1 above it, except
    where that cell would be the diagonal or outside the matrix."""
    low = np.tril(adj > 0, -1)
    rows, cols = np.nonzero(low)
    left_ok = low[rows, np.maximum(cols - 1, 0)] | (cols == 0)
    up_ok = low[np.maximum(rows - 1, 0), cols] | (rows - 1 <= cols)
    return bool(left_ok.all() and up_ok.all())


def shape_specs(n: int):
    """Index shapes swept by the rewire workload: (kind, p, q, h, k, l, rule).

    rule 'adj' is k = q+1 for every kind; rule 'skip' is BASIC with k = q+2 and
    p > h+1.
    """
    r = range(1, n + 1)
    for p in r:
        for q in r:
            for h in r:
                for k in r:
                    if 2 <= q < k < h < p:
                        if k == q + 1:
                            yield ("BASIC", p, q, h, k, 0, "adj")
                        elif k == q + 2 and p > h + 1:
                            yield ("BASIC", p, q, h, k, 0, "skip")
                    if k != q + 1:
                        continue
                    for l in range(n):
                        if 1 <= q and k + l < h < p - l:
                            yield ("ROW", p, q, h, k, l, "adj")
                        if 2 <= q - l and k < h - l and h < p:
                            yield ("COL", p, q, h, k, l, "adj")


def spec_text(kind, p, q, h, k, l) -> str:
    return f"BASIC {p} {q} {h} {k}" if kind == "BASIC" else f"{kind} {p} {q} {h} {k} {l}"


def rewire_expected(max_n: int, alphas_adj, alphas_skip):
    """Reference rewirings: {(host, spec text, alpha): (kind, p, q, h, k, l, rule)}.

    A rewiring of a connected threshold host applies when its removed cells
    are edges, its added cells are non-edges and the result is still
    stepwise in the same labeling.
    """
    expected = {}
    for n in range(4, max_n + 1):
        shapes = list(shape_specs(n))
        for m in range(n - 1, n * (n - 1) // 2 + 1):
            for host in connected_creations(n, m):
                adj = stepwise_adjacency(host)
                for kind, p, q, h, k, l, rule in shapes:
                    after = rewired(adj, (kind, p, q, h, k, l))
                    if after is None or not is_stepwise(after):
                        continue
                    for a in alphas_adj if rule == "adj" else alphas_skip:
                        expected[(host, spec_text(kind, p, q, h, k, l), Fraction(a))] = (kind, p, q, h, k, l, rule)
    return expected


def parse_certificate(line: str) -> dict:
    """``host|spec|alpha|rho_before|rho_after|predicted|observed|r1|r2|covered``."""
    host, spec, alpha, rb, ra, pred, obs, r1, r2, covered = line.split("|")
    return {
        "key": (host, spec, Fraction(alpha)),
        "rho_before": float(rb), "rho_after": float(ra),
        "predicted": pred, "observed": obs,
        "r1": float(r1), "r2": float(r2), "covered": covered,
    }


def check_certificates(lines, expected) -> list[str]:
    """Rewiring certificates against the reference radii and the paper's rules.

    rho_after >= rho_before - 1e-10; observed equality exactly when alpha =
    1/2, l = 0 and p = h+1 = q+3; the k = q+2 rule strict by more than 1e-9;
    both identity residuals <= 1e-8; both radii within 1e-9 of eigvalsh on
    the reference's own host and rewired matrices.
    """
    problems = []
    certs = {}
    for i, line in enumerate(lines):
        try:
            cert = parse_certificate(line)
        except ValueError as exc:
            problems.append(f"rewire: unparsable certificate {i + 1}: {line!r} ({exc})")
            return problems
        if cert["key"] in certs:
            problems.append(f"rewire: duplicate certificate {cert['key']}")
        certs[cert["key"]] = cert
    missing = set(expected) - set(certs)
    extra = set(certs) - set(expected)
    if missing or extra:
        problems.append(
            f"rewire: {len(certs)} certificates vs {len(expected)} expected; "
            f"missing {sorted(missing, key=str)[:3]} extra {sorted(extra, key=str)[:3]}"
        )
    keys = sorted(set(certs) & set(expected), key=str)
    if not keys:
        return problems
    befores = [stepwise_adjacency(host) for host, _, _ in keys]
    afters = [rewired(befores[i], expected[key][:6]) for i, key in enumerate(keys)]
    ref_before = np.empty(len(keys))
    ref_after = np.empty(len(keys))
    for group in {(len(key[0]), key[2]) for key in keys}:
        idx = [i for i, key in enumerate(keys) if (len(key[0]), key[2]) == group]
        ref_before[idx] = radii(np.stack([befores[i] for i in idx]), group[1])
        ref_after[idx] = radii(np.stack([afters[i] for i in idx]), group[1])
    for i, key in enumerate(keys):
        cert = certs[key]
        kind, p, q, h, k, l, rule = expected[key]
        where = f"rewire {key[0]} {key[1]} alpha={key[2]}"
        rb, ra = cert["rho_before"], cert["rho_after"]
        equality = key[2] == Fraction(1, 2) and l == 0 and p == h + 1 == q + 3 and rule == "adj"
        if cert["covered"] != "1":
            problems.append(f"{where}: certificate says no monotonicity rule covers it")
        if abs(rb - ref_before[i]) > TOL or abs(ra - ref_after[i]) > TOL:
            problems.append(f"{where}: radii {rb!r},{ra!r} != reference {ref_before[i]!r},{ref_after[i]!r}")
        if ra < rb - MONOTONE_SLACK:
            problems.append(f"{where}: radius decreased {rb!r} -> {ra!r}")
        if cert["predicted"] != str(int(equality)) or cert["observed"] != str(int(equality)):
            problems.append(
                f"{where}: predicted={cert['predicted']} observed={cert['observed']}, "
                f"equality window says {int(equality)}"
            )
        if equality != (abs(ref_after[i] - ref_before[i]) <= TOL):
            problems.append(f"{where}: reference radii disagree with the equality window")
        if rule == "skip" and not ra - rb > TOL:
            problems.append(f"{where}: k=q+2 rule not strict: {rb!r} -> {ra!r}")
        if not (cert["r1"] <= IDENTITY_TOL and cert["r2"] <= IDENTITY_TOL):
            problems.append(f"{where}: identity residuals {cert['r1']!r}, {cert['r2']!r} > {IDENTITY_TOL}")
    first = {}
    for i, key in enumerate(keys):
        first.setdefault(key[:2], i)
    for (host, spec), i in first.items():
        if peel_creation(afters[i]) is None:
            problems.append(f"rewire {host} {spec}: rewired graph is not threshold")
    return problems
