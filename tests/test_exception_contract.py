"""The exception contract: a public function given integers returns, or refuses them with ``InputError``.

The command line exits 2 on ``InputError`` and 1 on any other error, so a
bad argument that escapes as another exception, or a call that never
returns, breaks the exit codes the README promises.
"""

import importlib
import inspect
import pkgutil
import signal

from hypothesis import given, settings, strategies as st

import dirichletj
from dirichletj.exactalg import InputError


def _integer_functions() -> dict:
    """Every public module-level function of the package whose parameters are all annotated ``int``, by name."""
    found = {}
    for info in pkgutil.iter_modules(dirichletj.__path__):
        module = importlib.import_module(f"dirichletj.{info.name}")
        for name, f in vars(module).items():
            if name.startswith("_") or inspect.isclass(f) or getattr(f, "__module__", None) != module.__name__:
                continue
            params = inspect.signature(f).parameters.values()
            if params and all(p.annotation in ("int", int) for p in params):
                found[f"{info.name}.{name}"] = f
    return found


FUNCTIONS = _integer_functions()
# Seconds a call may take.  Every function here returns in milliseconds on such small integers.
PATIENCE = 2


class _Hang(Exception):
    pass


def _hang(signum, frame):
    raise _Hang


def test_the_sweep_finds_the_integer_functions_of_every_layer():
    assert {"exactalg.staudt_odd_primes", "cyclotomic.padic_splitting", "characters.primitive_root",
            "bernoulli.bernoulli_number", "padic.quotient_oracle", "homotopy.pi_JN",
            "cli.suite_von_staudt"} <= set(FUNCTIONS)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_a_public_integer_function_returns_or_raises_input_error(data):
    # Integers from -3 to 5: larger ones make some calls build huge objects, as
    # quotient_oracle(p, v, ...) builds Phi_(p^(v-1)).
    name = data.draw(st.sampled_from(sorted(FUNCTIONS)), label="function")
    f = FUNCTIONS[name]
    kwargs = {param: data.draw(st.integers(-3, 5), label=param) for param in inspect.signature(f).parameters}
    previous = signal.signal(signal.SIGALRM, _hang)
    signal.alarm(PATIENCE)
    try:
        f(**kwargs)
    except InputError:
        pass
    except _Hang:
        raise AssertionError(f"{name}(**{kwargs}) did not return within {PATIENCE} s") from None
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
