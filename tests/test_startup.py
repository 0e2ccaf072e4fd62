"""Start-up cost of the package's own modules.

Importing a module runs every @dataclass in it, and each one compiles its
generated methods (__init__, __repr__, __eq__, __hash__, __setattr__ and
__delattr__ when frozen) with exec. An immutable record is therefore a
typing.NamedTuple, copied with `._replace`. A frozen dataclass is kept only
where the class caches a value with a cached_property, which needs the
per-instance __dict__ a NamedTuple has not; mutable records stay dataclasses.
A standard module that only a rare path needs is imported on that path.
"""

import dataclasses
import functools
import importlib
import pkgutil

import analyse

from conftest import fresh_modules


def _package_classes():
    for info in pkgutil.iter_modules(analyse.__path__, "analyse."):
        module = importlib.import_module(info.name)
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__ == module.__name__:
                yield value


def _caches(cls) -> bool:
    return any(isinstance(v, functools.cached_property) for v in vars(cls).values())


def test_every_frozen_dataclass_caches_a_value():
    frozen = {cls for cls in _package_classes()
              if dataclasses.is_dataclass(cls) and cls.__dataclass_params__.frozen}
    names = {f"{cls.__module__}.{cls.__qualname__}" for cls in frozen}
    assert {"analyse.grid.GridModel", "analyse.grid.GridState",
            "analyse.network.NetworkTopology"} <= names  # the walk saw the modules
    assert sorted(f"{cls.__module__}.{cls.__qualname__}"
                  for cls in frozen if not _caches(cls)) == []


def test_the_entry_points_import_no_exact_arithmetic():
    # statistics (and with it fractions and decimal) serves only the overflow
    # fallback of telemetry.mean
    modules = fresh_modules("import analyse.runner, analyse.cli, analyse.validation")
    assert "analyse.runner" in modules
    assert {"statistics", "fractions", "decimal"} & modules == set()
