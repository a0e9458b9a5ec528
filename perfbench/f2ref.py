"""Reference GF(2) linear algebra for input generation and output checks.

Independent of stable4.f2 on purpose: the checks must not share code with the
program they check, and calls made here never show up in the traced counters.
Conventions match the program: a matrix is a tuple of row bitmasks, a vector
is an int with coordinate i in bit i, and (Mv)_i = <row_i, v> mod 2.
"""

from __future__ import annotations


def identity(d: int) -> tuple[int, ...]:
    return tuple(1 << i for i in range(d))


def apply(m: tuple[int, ...], v: int) -> int:
    out = 0
    for i, row in enumerate(m):
        out |= ((row & v).bit_count() & 1) << i
    return out


def matmul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Row i of ab is the XOR of the rows of b selected by row i of a."""
    rows = []
    for r in a:
        acc, j = 0, 0
        while r:
            if r & 1:
                acc ^= b[j]
            r >>= 1
            j += 1
        rows.append(acc)
    return tuple(rows)


def transpose(m: tuple[int, ...]) -> tuple[int, ...]:
    d = len(m)
    return tuple(
        sum(((m[i] >> j) & 1) << i for i in range(d)) for j in range(d)
    )


def inverse(m: tuple[int, ...]) -> tuple[int, ...] | None:
    """Inverse by Gauss-Jordan elimination, or None when m is singular."""
    d = len(m)
    work = [m[i] | (1 << (d + i)) for i in range(d)]
    for col in range(d):
        pivot = next((r for r in range(col, d) if work[r] >> col & 1), None)
        if pivot is None:
            return None
        work[col], work[pivot] = work[pivot], work[col]
        for r in range(d):
            if r != col and work[r] >> col & 1:
                work[r] ^= work[col]
    mask = (1 << d) - 1
    return tuple((w >> d) & mask for w in work)


def random_invertible(rng, d: int) -> tuple[int, ...]:
    while True:
        m = tuple(rng.randrange(1 << d) for _ in range(d))
        if inverse(m) is not None:
            return m


def conjugate_all(gens, g) -> list[tuple[int, ...]]:
    """g h g^-1 for every generator h."""
    gi = inverse(g)
    return [matmul(matmul(g, h), gi) for h in gens]


def closure_size(gens) -> int:
    d = len(gens[0])
    seen = {identity(d)}
    frontier = list(seen)
    while frontier:
        m = frontier.pop()
        for g in gens:
            n = matmul(g, m)
            if n not in seen:
                seen.add(n)
                frontier.append(n)
    return len(seen)


def orbit(v: int, gens) -> set[int]:
    reached = {v}
    frontier = [v]
    while frontier:
        u = frontier.pop()
        for g in gens:
            w = apply(g, u)
            if w not in reached:
                reached.add(w)
                frontier.append(w)
    return reached


def stabilizer_generators(gens, w: int) -> set[tuple[int, ...]]:
    """Schreier generators of {rho in <gens> : rho^T w = w}.

    x -> (g^-1)^T x is a left action on dual vectors with the same
    stabilizer, so for a transversal t_x (t_x . w = x) every
    t_{g.x}^-1 g t_x fixes w, and these elements generate the stabilizer.
    Costs |orbit of w| * |gens| products instead of a closure.
    """
    d = len(gens[0])
    acts = [(g, transpose(inverse(g))) for g in gens]
    transversal = {w: identity(d)}
    frontier = [w]
    while frontier:
        x = frontier.pop()
        for g, g_dual in acts:
            y = apply(g_dual, x)
            if y not in transversal:
                transversal[y] = matmul(g, transversal[x])
                frontier.append(y)
    out = set()
    for x, t_x in transversal.items():
        for g, g_dual in acts:
            t_y = transversal[apply(g_dual, x)]
            out.add(matmul(inverse(t_y), matmul(g, t_x)))
    return out


def bits_of(text: str) -> int:
    """Parse the program's bit-strings: the leftmost character is coordinate 0."""
    return sum(1 << i for i, ch in enumerate(text) if ch == "1")


def to_text(v: int, d: int) -> str:
    return "".join("1" if v >> i & 1 else "0" for i in range(d))
