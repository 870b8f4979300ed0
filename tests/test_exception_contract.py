"""The exception contract: a public function given integers, characters or fields returns, or refuses them with ``InputError``.

The command line exits 2 on ``InputError`` and 1 on any other error, so a
bad argument that escapes as another exception, or a call that never
returns, breaks the exit codes the README promises.
"""

import importlib
import inspect
import math
import pkgutil
import signal

from hypothesis import given, settings, strategies as st

import dirichletj
from dirichletj.characters import (abelian_field, enumerate_characters, prime_to_p_order, tame_exponent,
                                   tame_order)
from dirichletj.exactalg import InputError, is_prime

# Every character and every field of these moduli is drawn; all calls on them are quick.
MODULI = (1, 2, 3, 4, 5, 8, 9, 12, 15, 16)
CHARACTERS = [chi for N in MODULI for chi in enumerate_characters(N)]
# Every subgroup of (Z/N)^x for these N has at most two generators.
FIELDS = sorted({abelian_field(N, gens) for N in MODULI
                 for units in [[u for u in range(N) if math.gcd(u, N) == 1]]
                 for gens in [()] + [(a, b) for a in units for b in units]},
                key=lambda field: (field.conductor, field.subgroup))
# The values drawn for each annotation a parameter may carry.  Integers run from -3 to 5:
# larger ones make some calls build huge objects, as quotient_oracle(p, v, ...) builds Phi_(p^(v-1)).
DRAWN = {"int": st.integers(-3, 5), "DirichletCharacter": st.sampled_from(CHARACTERS),
         "AbelianField": st.sampled_from(FIELDS)}


def _drawn_functions() -> dict:
    """Every public module-level function of the package whose parameters all have an annotation in ``DRAWN``, by name."""
    found = {}
    for info in pkgutil.iter_modules(dirichletj.__path__):
        module = importlib.import_module(f"dirichletj.{info.name}")
        for name, f in vars(module).items():
            if name.startswith("_") or inspect.isclass(f) or getattr(f, "__module__", None) != module.__name__:
                continue
            params = inspect.signature(f).parameters.values()
            if params and all(p.annotation in DRAWN for p in params):
                found[f"{info.name}.{name}"] = f
    return found


FUNCTIONS = _drawn_functions()
# Seconds a call may take.  Every function here returns in milliseconds on such small arguments.
PATIENCE = 2


class _Hang(Exception):
    pass


def _hang(signum, frame):
    raise _Hang


def test_the_sweep_finds_the_functions_of_every_layer():
    assert {"exactalg.staudt_odd_primes", "cyclotomic.padic_splitting", "characters.primitive_root",
            "characters.tame_order", "characters.field_characters", "bernoulli.bernoulli_number",
            "bernoulli.verify_carlitz", "padic.quotient_oracle", "homotopy.pi_JN", "homotopy.decompose_p",
            "eisenstein.congruence_check", "dedekind.verify_jk", "cli.suite_von_staudt"} <= set(FUNCTIONS)
    assert len(CHARACTERS) == 40 and len({field.conductor for field in FIELDS}) == len(MODULI) - 1


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_a_public_function_returns_or_raises_input_error(data):
    name = data.draw(st.sampled_from(sorted(FUNCTIONS)), label="function")
    f = FUNCTIONS[name]
    kwargs = {param.name: data.draw(DRAWN[param.annotation], label=param.name)
              for param in inspect.signature(f).parameters.values()}
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


def test_the_tame_and_prime_to_p_reads_refuse_every_p_that_is_not_prime():
    # An order or exponent "at p" for a p that is not prime would be a silently wrong answer.
    answered = []
    for f in (tame_order, tame_exponent, prime_to_p_order):
        for p in range(-3, 6):
            for chi in CHARACTERS:
                if not is_prime(p):
                    try:
                        answered.append((f.__name__, chi, p, f(chi, p)))
                    except InputError as exc:
                        assert str(exc) == "p must be prime", (f.__name__, chi, p)
    assert not answered, answered[:5]
