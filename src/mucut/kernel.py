"""Formula kernel dispatcher.

Selects the compiled kernel (mucut._kernel_c, built from Cython) when it
imported successfully, otherwise the pure-Python twin.  Set the
environment variable MUCUT_PURE to any nonempty value to force the
pure-Python kernel.  Both backends implement the identical API; the
test suite exercises the two side by side.
"""

from __future__ import annotations

import os

if os.environ.get("MUCUT_PURE"):
    from mucut import _kernel_py as _impl
else:
    try:
        from mucut import _kernel_c as _impl  # type: ignore[attr-defined]
    except ImportError:
        from mucut import _kernel_py as _impl

KERNEL_BACKEND = _impl.KERNEL_BACKEND

ATOM = _impl.ATOM
NATOM = _impl.NATOM
VAR = _impl.VAR
AND = _impl.AND
OR = _impl.OR
BOX = _impl.BOX
DIA = _impl.DIA
MU = _impl.MU
NU = _impl.NU
NUB = _impl.NUB

X = _impl.X
TOP = _impl.TOP

atom = _impl.atom
natom = _impl.natom
and_ = _impl.and_
or_ = _impl.or_
box = _impl.box
dia = _impl.dia
mu = _impl.mu
nu = _impl.nu
nub = _impl.nub

validate = _impl.validate
negate = _impl.negate
prime = _impl.prime
substitute = _impl.substitute
iterate = _impl.iterate
level = _impl.level
size = _impl.size
has_free_var = _impl.has_free_var
is_closed = _impl.is_closed
is_l0 = _impl.is_l0
is_fully_primed = _impl.is_fully_primed
occurs = _impl.occurs
replace_subterm = _impl.replace_subterm
max_nubar_level = _impl.max_nubar_level
k_positive = _impl.k_positive
sort_key = _impl.sort_key
iter_subforms = _impl.iter_subforms
