"""Reference computations that the engine tests compare against.

`naive_substitute` is substitution written out term by term: every term of
a polynomial becomes its coefficient times the product of its generators'
images, multiplied out one factor at a time.  The engine substitutes only
single-term images, by rewriting packed keys; this reference also takes
multi-term images over another table, such as the elementary symmetric
polynomials of explicit roots that the root oracles substitute for the
Pontryagin generators.
"""

from anomaly.algebra import GradedPoly


def naive_substitute(f, images, target):
    """f with generators replaced by `images`, multiplied out over the table `target`.

    An unmapped generator that a term carries passes through by name, so
    `target` must have it.  The result is truncated at the smallest
    truncation of f and the images; with nothing mapped it stays over f's
    table.
    """
    if not images:
        target = f.table
    trunc = min([f.truncation] + [image.truncation for image in images.values()])
    acc = GradedPoly.zero(target, trunc)
    for expts, coeff in f.terms.items():
        term = GradedPoly.constant(target, trunc, coeff)
        for (name, _), e in zip(f.table.generators, expts):
            if e:
                image = images[name] if name in images else GradedPoly.generator(target, name, trunc)
                for _ in range(e):
                    term = term * image
        acc = acc + term
    return acc
