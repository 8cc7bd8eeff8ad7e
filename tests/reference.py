"""Test-only exact references, one per question the tests ask.

- `rref`, `kernel` and `solve`: rational Gauss-Jordan on Fractions, with
  the kernels' pivot policy (leftmost column, first nonzero row below);
- `echelon_mod`: list-based forward elimination mod p;
- `value` and `row`: naive Fraction evaluation, term by term;
- `reduce_modulo` and `hbase_decompose`: the canonical reduction and the
  H-base decomposition built from `Polynomial` temporaries, each degree's
  weights from `solve`;
- `polynomial_str`: the printer `Polynomial.__str__` had when it stored
  one Fraction per term, reading `terms`.

A new differential test compares against these rather than adding
another. Nothing here imports `ppsn.linalg` or `ppsn.nodes`, so a fault in
the elimination and evaluation kernels cannot hide in their reference."""

from fractions import Fraction

from ppsn.macaulay import select_monomials
from ppsn.mpoly import Polynomial, monomial_basis


def rref(matrix):
    """(rank, pivots, rows): the RREF of the matrix, with each pivot as
    (original row, column)."""
    m = [[Fraction(v) for v in row] for row in matrix]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    origin = list(range(nrows))
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        origin[r], origin[pr] = origin[pr], origin[r]
        inv = 1 / m[r][c]
        m[r] = [v * inv for v in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append((origin[r], c))
        r += 1
        if r == nrows:
            break
    return r, tuple(pivots), tuple(tuple(row) for row in m)


def kernel(matrix):
    """The RREF basis of the right kernel: for each free column, 1 there
    and minus that column of the RREF at the pivot columns."""
    ncols = len(matrix[0]) if matrix else 0
    _, pivots, rows = rref(matrix)
    columns = [c for _, c in pivots]
    basis = []
    for free in range(ncols):
        if free in columns:
            continue
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for c, row in zip(columns, rows):
            v[c] = -row[free]
        basis.append(v)
    return basis


def solve(matrix, rhs):
    """One solution of A x = b, free variables zero, read off the RREF of
    [A | b]; None when a pivot lands in the b column."""
    ncols = len(matrix[0]) if matrix else 0
    _, pivots, rows = rref([list(row) + [b] for row, b in zip(matrix, rhs)])
    if any(c == ncols for _, c in pivots):
        return None
    x = [Fraction(0)] * ncols
    for (_, c), row in zip(pivots, rows):
        x[c] = row[ncols]
    return x


def echelon_mod(matrix, p):
    """(rank, pivots, rows) of forward elimination mod p, one reduction per
    entry per row operation: each pivot row is scaled to 1 and cleared below
    only, and `rows` are the rank pivot rows, the row echelon form."""
    m = [[v % p for v in row] for row in matrix]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    origin = list(range(nrows))
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        origin[r], origin[pr] = origin[pr], origin[r]
        inv = pow(m[r][c], -1, p)
        m[r][c:] = [a * inv % p for a in m[r][c:]]
        for i in range(r + 1, nrows):
            f = m[i][c]
            if f:
                m[i][c:] = [(a - f * b) % p for a, b in zip(m[i][c:], m[r][c:])]
        pivots.append((origin[r], c))
        r += 1
        if r == nrows:
            break
    return r, tuple(pivots), tuple(map(tuple, m[:r]))


def row(q, monomials):
    """The value of each monomial at q, as a product of Fraction powers."""
    values = []
    for alpha in monomials:
        v = Fraction(1)
        for x, e in zip(q, alpha):
            v *= x**e
        values.append(v)
    return values


def value(poly, q):
    """poly at q, term by term in Fraction arithmetic."""
    return sum((c * v for c, v in zip(poly.terms.values(), row(q, poly.terms))), Fraction(0))


def reduce_modulo(f, manifold):
    """(remainder, cofactors) of the canonical-form descent: at each degree
    t, the weights of the degree-t items solve their selected columns
    against f's part there, and the weighted items times the f_i leave f."""
    s = manifold.s
    zero = Polynomial.zero(manifold.n)
    if f.is_zero():
        return zero, (zero,) * s
    work = f
    remainder = zero
    cofactors = [zero] * s
    for t in range(f.degree, -1, -1):
        hom = work.homogeneous_component(t)
        if hom.is_zero():
            continue
        sel = select_monomials(manifold, t)
        if not sel.labeled_items:
            remainder = remainder + hom
            work = work - hom
            continue
        v = [hom.coefficient(mu) for mu in sel.monomials]
        items = [
            [(Polynomial.monomial(alpha) * manifold.leading_forms[i]).coefficient(mu) for mu in sel.monomials]
            for alpha, i in sel.labeled_items
        ]
        system = [[item[c] for item in items] for c in sel.selected]
        lam = solve(system, [v[c] for c in sel.selected])
        combo = [Fraction(0)] * len(sel.monomials)
        for r, weight in enumerate(lam):
            for j, entry in enumerate(items[r]):
                combo[j] += weight * entry
        u = Polynomial(manifold.n, {mu: v[j] - combo[j] for j, mu in enumerate(sel.monomials)})
        remainder = remainder + u
        subtract = u
        for r, (alpha, i) in enumerate(sel.labeled_items):
            if lam[r] == 0:
                continue
            mono = Polynomial.monomial(alpha, lam[r])
            cofactors[i] = cofactors[i] + mono
            subtract = subtract + mono * manifold.polynomials[i]
        work = work - subtract
    assert work.is_zero()
    return remainder, tuple(cofactors)


def hbase_decompose(g, manifold):
    """The cofactors of g's degree-respecting decomposition, from the
    H-base system assembled column by column from X^beta * f_i products; None
    when no decomposition exists."""
    n = manifold.n
    m = g.degree
    basis = monomial_basis(n, m)
    row_of = {mu: j for j, mu in enumerate(basis)}
    columns = []
    labels = []
    for i, f in enumerate(manifold.polynomials):
        k = manifold.profile.ks[i]
        if k > m:
            continue
        for beta in monomial_basis(n, m - k):
            column = [Fraction(0)] * len(basis)
            for mu, c in (Polynomial.monomial(beta) * f).terms.items():
                column[row_of[mu]] = c
            columns.append(column)
            labels.append((i, beta))
    matrix = [[column[r] for column in columns] for r in range(len(basis))]
    sol = solve(matrix, [g.coefficient(mu) for mu in basis])
    if sol is None:
        return None
    cof_terms = [{} for _ in manifold.polynomials]
    for (i, beta), c in zip(labels, sol):
        if c != 0:
            cof_terms[i][beta] = c
    return tuple(Polynomial(n, t) for t in cof_terms)


def polynomial_str(poly):
    """The polynomial's text: its terms in the graded order, each sign then
    magnitude, read off its Fraction coefficients."""
    terms = poly.terms
    if not terms:
        return "0"
    names = [f"x{i}" for i in range(1, poly.n + 1)]
    pieces = []
    for alpha in sorted(sorted(terms, reverse=True), key=sum):
        c = terms[alpha]
        num, den = c.numerator, c.denominator
        mag = str(abs(num)) if den == 1 else f"{abs(num)}/{den}"
        factors = "*".join([f"{x}^{e}" if e > 1 else x for x, e in zip(names, alpha) if e])
        if not factors:
            body = mag
        elif mag == "1":
            body = factors
        else:
            body = f"{mag}*{factors}"
        pieces.append(f"- {body}" if num < 0 else f"+ {body}")
    text = " ".join(pieces)
    return text[2:] if text[0] == "+" else "-" + text[2:]
