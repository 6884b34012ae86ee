"""Process-liveness diagnostics of the live cluster.

The failure contract: a shard server that *raises* posts a
:class:`~repro.runtime.messages.ServerFailure` and the driver re-raises it
with the remote traceback.  The gap is everything that dies without
raising — OOM kills, SIGKILL'd processes, hard crashes — which would
otherwise surface as a bare ``RuntimeError`` or, worse, a timeout.  This
module is the vocabulary for closing that gap:

* :class:`ShardProcessError` carries the shard id, the remote traceback
  (when one was reported) and the process post-mortem, so callers can
  assert on *why* instead of pattern-matching message strings;
* :func:`describe_exit` renders a dead process's exit status with the
  signal *name* (``exitcode=-9 (killed by SIGKILL)``) — the difference
  between "deadlock?" and "the kernel OOM killer got it" in a CI log;
* :func:`raise_failure` / :func:`failure_from_process` build the error
  from whichever evidence exists.
"""

from __future__ import annotations

import signal
from typing import Optional


class ShardProcessError(RuntimeError):
    """A shard process failed; message embeds every diagnostic we have.

    ``remote_traceback`` is the traceback the process posted before dying
    (``None`` when it died without reporting — killed, OOM'd, crashed).
    """

    def __init__(
        self,
        shard_id: int,
        message: str,
        remote_traceback: Optional[str] = None,
    ) -> None:
        text = f"shard {shard_id}: {message}"
        if remote_traceback:
            text = f"{text}\n--- remote traceback ---\n{remote_traceback}"
        super().__init__(text)
        self.shard_id = shard_id
        self.remote_traceback = remote_traceback


def describe_exit(process) -> str:
    """Human-readable post-mortem for a (possibly dead) process.

    Negative exit codes are deaths by signal; naming the signal is the
    actionable part (SIGKILL → someone/OOM killed it, SIGSEGV → native
    crash, SIGTERM → orchestration shut it down).
    """
    exitcode = process.exitcode
    if exitcode is None:
        return "still running"
    if exitcode < 0:
        try:
            name = signal.Signals(-exitcode).name
        except ValueError:
            name = f"signal {-exitcode}"
        return f"exitcode={exitcode} (killed by {name})"
    return f"exitcode={exitcode}"


def raise_failure(failure) -> None:
    """Re-raise a reported ServerFailure with its remote traceback."""
    raise ShardProcessError(
        failure.shard_id,
        f"shard process failed: {failure.error}",
        remote_traceback=failure.traceback,
    )


def failure_from_process(shard_id: int, process, context: str) -> ShardProcessError:
    """The error for a process found dead *without* a reported failure."""
    return ShardProcessError(
        shard_id,
        f"process died {context} without reporting a failure "
        f"[{describe_exit(process)}]",
    )
