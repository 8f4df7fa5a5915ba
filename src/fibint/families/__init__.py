"""The identity catalog's sections, grouped by integrand family, in
catalog order; each section's cases() returns its rows."""

from . import halfline, lewin, sine, stewart, tangent, xcos, xsine, xsq_cos2x, xsq_halfpi, xsq_pi

SECTIONS = (
    lewin,
    stewart,
    tangent,
    halfline,
    sine,
    xsine,
    xsq_halfpi,
    xsq_pi,
    xsq_cos2x,
    xcos,
)
