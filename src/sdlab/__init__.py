"""sdlab: modular weights and partition structure of abelian gauge fields
on compact and ALF four-manifolds, computed numerically with certified
truncations and dual-route cross-checks."""

import importlib.util
import sys

__version__ = "0.1.0"


def _lazy(name: str):
    """Module `name`, whose body runs at its first attribute access (the
    `importlib.util.LazyLoader` recipe).  An imported module is returned as
    it is.  A plain `import name` anywhere loads it at once."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module
