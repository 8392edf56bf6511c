"""Exception hierarchy for the repro package.

Every exception raised intentionally by this library derives from
:class:`ReproError`, so callers can catch library failures without also
swallowing genuine programming errors.

The hierarchy encodes one load-bearing distinction: **retryable versus
fatal**. A failure is *retryable* when the condition that caused it can
clear on its own — a peer that is momentarily unreachable, a retry
budget that a less-loaded network would not have spent, an interrupted
disk write.
It is *fatal* when retrying the same operation can only fail the same
way — a mis-configured component, a corrupted snapshot, an invalid
fault plan. Callers branch on it either by catching
:class:`TransientError` or by checking the :attr:`ReproError.retryable`
class flag; the live runtime's request layer (:mod:`repro.live`) is the
canonical consumer.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library.

    ``retryable`` marks whether the failure may clear if the operation
    is retried later (after backoff, reconvergence, or repair); fatal
    errors keep the default ``False``.
    """

    retryable = False


class TransientError(ReproError):
    """A failure that may clear on retry (network weather, timing, load).

    Catching this class is the supported way to implement "retry the
    retryable, surface the fatal" without enumerating concrete types.
    """

    retryable = True


class ConfigurationError(ReproError, ValueError):
    """An experiment, overlay, or model was configured with invalid values."""


class DatasetError(ReproError):
    """A dataset could not be generated, loaded, or validated."""


class SimulationError(ReproError):
    """The simulation engine was driven into an invalid state."""


class FaultInjectionError(ReproError):
    """A fault-injection plan was invalid or used out of order."""


class PartitionError(FaultInjectionError):
    """A network partition was specified with an invalid cut or window."""


class PersistError(ReproError):
    """A snapshot could not be captured, validated, loaded, or restored."""


class SnapshotIOError(PersistError, TransientError):
    """A snapshot file could not be read or written (OS-level failure).

    Retryable: the underlying ``OSError`` (full disk, NFS hiccup,
    permission race) may not recur, and atomic writes guarantee the
    previous artifact is still intact.
    """

    retryable = True


class SnapshotIntegrityError(PersistError):
    """A snapshot's content does not match its manifest digest.

    Fatal: the bytes on disk are wrong and will stay wrong; re-reading
    cannot help. Restore from a different snapshot instead.
    """


# -- live runtime failure taxonomy -------------------------------------------


class RetryBudgetExhausted(TransientError):
    """Every attempt within a request's retry budget timed out.

    Retryable at a higher layer (the next maintenance pass may find the
    peer reachable again); within the request layer itself the budget is
    spent and the caller must degrade — e.g. shed the notification to
    the catch-up store.
    """


class PeerUnreachable(TransientError):
    """The target peer is confirmed unreachable (evicted by membership).

    Raised *before* spending network attempts when membership already
    confirmed the peer dead. Retryable: the peer may rejoin and refute.
    """
