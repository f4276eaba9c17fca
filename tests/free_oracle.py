"""Reference dimensions from the free-monomial consequence span (tideal.SpanCache)."""

from freealg import tideal
from freealg.quotient import DEFAULT_DEGREE_CAP
from freealg.term import QQ, count_monomials, mdeg


def free_dim(variety, d, fld=QQ, degree_cap=DEFAULT_DEGREE_CAP):
    """dim of component d: free monomials minus the rank of the consequence span."""
    d = mdeg(d)
    return (count_monomials(d, variety.flavor)
            - tideal.consequence_span(variety, d, fld, degree_cap).rank)
