"""repro — reproduction of Chan, Dandamudi & Majumdar (IPPS 1997).

*Performance Comparison of Processor Scheduling Strategies in a
Distributed-Memory Multicomputer System.*

The package simulates a 16-node Transputer-style distributed-memory
multicomputer (store-and-forward interconnect, per-node MMU, two-priority
hardware scheduler) and implements the paper's three-level scheduling
hierarchy with static space-sharing, RR-job time-sharing, and hybrid
policies, along with the matrix-multiplication and sorting workloads used
in the evaluation.

Quickstart::

    from repro import MulticomputerSystem, SystemConfig
    from repro.core.policies import StaticSpaceSharing
    from repro.workload import standard_batch

    config = SystemConfig(num_nodes=16, topology="mesh")
    system = MulticomputerSystem(config, policy=StaticSpaceSharing(partition_size=4))
    result = system.run_batch(standard_batch("matmul", architecture="adaptive"))
    print(result.mean_response_time)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record.
"""

__version__ = "1.0.0"

__all__ = ["MulticomputerSystem", "SystemConfig", "__version__"]


def _lazy_exports(namespace, exports):
    """PEP 562 ``__getattr__``/``__dir__`` for a package's public names.

    ``namespace`` is the package's ``globals()``; ``exports`` maps each
    submodule (relative to the package) to the public names it defines,
    where a name equal to its submodule's is the submodule itself.  A
    name's home submodule is imported on its first access and the value
    cached in ``namespace``, so a process loads only the submodules it
    touches and later lookups are plain attribute hits.  Any other name
    raises ``AttributeError``, which lets ``from package import
    submodule`` fall through to the import system.
    """
    import importlib

    package = namespace["__name__"]
    homes = {name: sub for sub, names in exports.items() for name in names}

    def __getattr__(name):
        try:
            sub = homes[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}") from None
        module = importlib.import_module(f"{package}.{sub}")
        value = module if name == sub else getattr(module, name)
        namespace[name] = value
        return value

    def __dir__():
        return sorted(set(namespace) | set(homes))

    return __getattr__, __dir__


# Lazy imports keep `import repro.sim` cheap and avoid import cycles.
__getattr__, __dir__ = _lazy_exports(globals(), {
    "core.system": ("MulticomputerSystem", "SystemConfig"),
})
