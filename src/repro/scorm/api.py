"""The SCORM 1.2 run-time API adapter (paper §2.4, §5.5).

The paper: "java script files to communicate with API and learning
management system are necessary to SCORM standard ... Some API functions
are used to set value (ex. learner record, learner progress, learner
status), get value, error handler ... and course beginning and ending
(ex. course initial and course finish)."

:class:`ApiAdapter` is that API, in Python: the eight LMS* functions with
the SCORM 1.2 state machine (not-initialized → running → finished), error
tracking, and commit callbacks into the LMS.  Return conventions follow
the spec: boolean functions return the strings ``"true"``/``"false"``,
``LMSGetValue`` returns ``""`` on error, and ``LMSGetLastError`` reports
the code of the most recent call.
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, Optional

from repro.scorm.datamodel import CmiDataModel
from repro.scorm.errors import ERROR_STRINGS, ScormError

__all__ = ["ApiAdapter", "ApiState"]


class ApiState(enum.Enum):
    """The SCORM session states: not initialized, running, finished."""
    NOT_INITIALIZED = "not_initialized"
    RUNNING = "running"
    FINISHED = "finished"


class ApiAdapter:
    """One SCO's API instance, bound to a CMI data model.

    ``on_commit`` is called with the data-model snapshot on every
    successful ``LMSCommit`` and on ``LMSFinish`` — the LMS wires its
    persistence in there.  ``datamodel`` is None once the session has
    finished: the committed snapshot is all that outlives it.
    """

    def __init__(
        self,
        datamodel: Optional[CmiDataModel] = None,
        on_commit: Optional[Callable[[Dict[str, object]], None]] = None,
    ) -> None:
        self.datamodel: Optional[CmiDataModel] = (
            datamodel if datamodel is not None else CmiDataModel()
        )
        self._on_commit = on_commit
        self._state = ApiState.NOT_INITIALIZED
        self._last_error = ScormError.NO_ERROR
        self._diagnostics: Dict[int, str] = {}

    @property
    def state(self) -> ApiState:
        """The adapter state (not initialized / running / finished)."""
        return self._state

    # -- session control ---------------------------------------------------

    def LMSInitialize(self, parameter: str = "") -> str:
        """Begin the communication session ("course initial")."""
        if parameter != "":
            return self._fail(ScormError.INVALID_ARGUMENT)
        if self._state is not ApiState.NOT_INITIALIZED:
            return self._fail(
                ScormError.GENERAL_EXCEPTION,
                diagnostic="LMSInitialize called twice",
            )
        self._state = ApiState.RUNNING
        return self._ok()

    def LMSFinish(self, parameter: str = "") -> str:
        """End the communication session ("course finish").

        Commits, then releases the data model: SCORM 1.2 answers every
        later call with error 301 (not initialized), so nothing can read
        it again, and the committed snapshot in ``on_commit`` is the
        learner record from here on.
        """
        if parameter != "":
            return self._fail(ScormError.INVALID_ARGUMENT)
        if self._state is not ApiState.RUNNING:
            return self._fail(ScormError.NOT_INITIALIZED)
        self._commit()
        self._state = ApiState.FINISHED
        self.datamodel = None
        return self._ok()

    # -- data transfer --------------------------------------------------------

    def LMSGetValue(self, element: str) -> str:
        """Read a CMI element; returns "" and sets the error on failure."""
        if self._state is not ApiState.RUNNING:
            self._last_error = ScormError.NOT_INITIALIZED
            return ""
        value, error = self.datamodel.get(element)
        self._last_error = error
        return value if error is ScormError.NO_ERROR else ""

    def LMSSetValue(self, element: str, value: str) -> str:
        """Write a CMI element; returns "true"/"false"."""
        if self._state is not ApiState.RUNNING:
            return self._fail(ScormError.NOT_INITIALIZED)
        error = self.datamodel.set(element, str(value))
        self._last_error = error
        return "true" if error is ScormError.NO_ERROR else "false"

    def LMSCommit(self, parameter: str = "") -> str:
        """Persist the data model via the on_commit hook."""
        if parameter != "":
            return self._fail(ScormError.INVALID_ARGUMENT)
        if self._state is not ApiState.RUNNING:
            return self._fail(ScormError.NOT_INITIALIZED)
        self._commit()
        return self._ok()

    # -- error handler ----------------------------------------------------------

    def LMSGetLastError(self) -> str:
        """The most recent call's error code, as a decimal string."""
        return str(int(self._last_error))

    def LMSGetErrorString(self, code: str) -> str:
        """The standard description for a SCORM error code ("" if unknown)."""
        try:
            return ERROR_STRINGS[ScormError(int(code))]
        except (ValueError, KeyError):
            return ""

    def LMSGetDiagnostic(self, code: str) -> str:
        """Implementation-specific detail for an error code, when recorded."""
        try:
            return self._diagnostics.get(int(code), "")
        except ValueError:
            return ""

    # -- internals ---------------------------------------------------------------

    def _commit(self) -> None:
        if self._on_commit is not None:
            self._on_commit(self.datamodel.snapshot())

    def _ok(self) -> str:
        self._last_error = ScormError.NO_ERROR
        return "true"

    def _fail(self, error: ScormError, diagnostic: str = "") -> str:
        self._last_error = error
        if diagnostic:
            self._diagnostics[int(error)] = diagnostic
        return "false"
