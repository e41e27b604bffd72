"""The driver-level machine options have one home: ``resolve_machine``.

Every driver forwards its machine options to
:func:`repro.pro.machine.resolve_machine` verbatim, so one rule governs all
of them: a pre-configured machine plus any option that is not ``None`` is a
``ValidationError`` naming the option, and a misspelled option is a
``TypeError``.  The sequential matrix path runs no machine and rejects the
machine and every machine option with one check.
"""

import inspect

import numpy as np
import pytest

from repro.baselines.dart_throwing import dart_throwing_permutation
from repro.baselines.samplesort import parallel_sample_sort
from repro.baselines.sort_based import sort_based_permutation
from repro.core.api import sample_communication_matrix
from repro.core.parallel_matrix import sample_matrix_parallel
from repro.core.permutation import (
    permute_distributed,
    random_permutation,
    random_permutation_indices,
)
from repro.pro.backends.pool import pool
from repro.pro.machine import PROMachine, resolve_machine
from repro.pro.telemetry import Telemetry
from repro.util.errors import ValidationError

#: One value per machine option that is not its ``None`` default.
OPTION_VALUES = {
    "backend": "thread",
    "seed": 123,
    "schedule_seed": 3,
    "retry": 2,
    "telemetry": Telemetry(),
}

DRIVERS = {
    "permute_distributed":
        lambda **kw: permute_distributed([np.arange(3), np.arange(3, 6)], **kw),
    "random_permutation": lambda **kw: random_permutation(np.arange(6), **kw),
    "random_permutation_indices": lambda **kw: random_permutation_indices(6, **kw),
    "sample_matrix_parallel": lambda **kw: sample_matrix_parallel([4, 4], **kw),
    "sample_communication_matrix":
        lambda **kw: sample_communication_matrix([4, 4], parallel=True, **kw),
}


@pytest.fixture
def machine():
    machine = PROMachine(2, seed=0)
    yield machine
    machine.close()


def test_resolve_machine_signature_is_the_allow_list():
    params = inspect.signature(resolve_machine).parameters
    keyword_only = [name for name, param in params.items()
                    if param.kind is inspect.Parameter.KEYWORD_ONLY]
    assert keyword_only == ["machine", *OPTION_VALUES]


@pytest.mark.parametrize("name, value", OPTION_VALUES.items(),
                         ids=[f"{name}={value!r}" for name, value in OPTION_VALUES.items()])
@pytest.mark.parametrize("driver", DRIVERS)
def test_machine_plus_option_is_rejected(driver, name, value, machine):
    with pytest.raises(ValidationError, match=f"machine or {name}, not both"):
        DRIVERS[driver](machine=machine, **{name: value})


def test_rejection_names_every_offending_option(machine):
    with pytest.raises(ValidationError, match="machine or backend, seed, retry, not both"):
        random_permutation(np.arange(6), machine=machine, backend="thread",
                           seed=1, retry=2)


@pytest.mark.parametrize("driver", DRIVERS)
def test_misspelled_option_is_a_type_error(driver):
    with pytest.raises(TypeError, match="bakend"):
        DRIVERS[driver](bakend="thread")


#: Retired machine options, each with a value it used to take.  The process
#: backend has one payload transport, the samplers one path (NumPy's), and
#: every process run one execution mode (a standing fleet).
RETIRED_OPTIONS = {"transport": "pickle", "kernels": "numpy", "persistent": True}


@pytest.mark.parametrize("option", RETIRED_OPTIONS)
@pytest.mark.parametrize("entry", ["resolve_machine", "PROMachine", "pool", *DRIVERS])
def test_retired_option_is_a_type_error(entry, option):
    call = (DRIVERS[entry] if entry in DRIVERS
            else (lambda **kw: resolve_machine(2, **kw)) if entry == "resolve_machine"
            else (lambda **kw: PROMachine(2, **kw)) if entry == "PROMachine"
            # pool() always picks the process backend and builds on entry
            else lambda backend, **kw: pool(2, **kw).__enter__())
    with pytest.raises(TypeError, match=option):
        call(backend="process", **{option: RETIRED_OPTIONS[option]})


@pytest.mark.parametrize("baseline", [
    lambda **kw: sort_based_permutation(np.arange(6), **kw),
    lambda **kw: parallel_sample_sort([np.arange(3), np.arange(3, 6)], **kw),
    lambda **kw: dart_throwing_permutation(np.arange(6), **kw),
], ids=["sort_based", "sample_sort", "dart_throwing"])
def test_baselines_reject_seed_with_machine(baseline, machine):
    with pytest.raises(ValidationError, match="machine or seed, not both"):
        baseline(machine=machine, seed=1)


class TestSequentialPath:
    """``parallel=False`` samples in the caller and takes no machine options."""

    @pytest.mark.parametrize("option", [
        "backend", "schedule_seed", "retry", "telemetry",
    ])
    def test_machine_option_is_rejected(self, option):
        with pytest.raises(ValidationError, match=f"{option}: only for parallel=True"):
            sample_communication_matrix([4, 4], seed=0, **{option: OPTION_VALUES[option]})

    def test_machine_is_rejected(self, machine):
        with pytest.raises(ValidationError, match="machine: only for parallel=True"):
            sample_communication_matrix([4, 4], machine=machine)

    def test_misspelled_option_is_a_type_error(self):
        with pytest.raises(TypeError, match="bakend"):
            sample_communication_matrix([4, 4], bakend="thread")

    @pytest.mark.parametrize("option", RETIRED_OPTIONS)
    def test_retired_option_is_a_type_error(self, option):
        with pytest.raises(TypeError, match=option):
            sample_communication_matrix([4, 4], seed=0,
                                        **{option: RETIRED_OPTIONS[option]})
