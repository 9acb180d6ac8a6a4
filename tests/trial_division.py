"""Division by a product of cyclotomic polynomials by trial division, the
reference that the package's ``LocScalar`` division is tested against."""

from qtwist.qarith import ONE, NotDivisibleError, cyclotomic


def divide_by_cyclotomic_product(z, factors):
    """Divide the fraction z by prod cyclotomic(d)^e without a generic gcd.

    ``factors`` maps cyclotomic index d to an exponent e >= 0.  Copies of
    cyclotomic(d) that divide the numerator exactly are cancelled by trial
    division; the rest join the denominator, which stays coprime to the
    numerator (cyclotomics are irreducible over Q), so the result is
    already canonical.
    """
    if z.is_zero():
        return z
    num = z.num
    extra = ONE
    for d, e in sorted(factors.items()):
        phi = cyclotomic(d)
        for k in range(e):
            try:
                num = num.divexact(phi)
            except NotDivisibleError:        # num is unchanged: the rest fail too
                extra = extra * phi ** (e - k)
                break
    return z._from_pair(num.coeffs, (z.den * extra).coeffs)
