"""Public announcement logic over finite geometric models.

Model checking, announcement updates and announcement elimination for three
semantics: single-agent topological models, n-ary product-topological
models, and subset-space models; plus iterated-announcement dynamics
(limits, muddy children, backward induction via rationality announcements,
persistence) and an exact-rational interval demonstration of how interior
and infinite intersection fail to commute.
"""

from .formula import Formula, ParseError, UnsupportedOperator, complexity, parse, render
from .topology import Topology, Violation, generate_from_subbasis, random_topology, verify_topology
from .topomodel import TopoModel, extension, random_topomodel, satisfies, update
from .sslmodel import (
    SSLModel,
    Situation,
    is_persistent,
    persistence_immunity_check,
    random_ssl_model,
    situations,
)
from .product import ProductModel, h_open, random_product_model

__all__ = [
    "Formula",
    "ParseError",
    "UnsupportedOperator",
    "complexity",
    "parse",
    "render",
    "Topology",
    "Violation",
    "generate_from_subbasis",
    "random_topology",
    "verify_topology",
    "TopoModel",
    "extension",
    "random_topomodel",
    "satisfies",
    "update",
    "SSLModel",
    "Situation",
    "is_persistent",
    "persistence_immunity_check",
    "random_ssl_model",
    "situations",
    "ProductModel",
    "h_open",
    "random_product_model",
]
