"""Unit tests for the job model, user log, and protocol messages."""

import pytest

from repro.condor.job import ExecutionAttempt, Job, JobState, ProgramImage, Universe
from repro.condor.protocols import FileData, JobDetails, JobResult, WireSize
from repro.condor.userlog import UserLog, UserLogEventType
from repro.core.result import ResultFile
from repro.core.scope import ErrorScope


class TestJob:
    def test_defaults(self):
        job = Job("1.0", owner="alice")
        assert job.universe is Universe.JAVA
        assert job.state is JobState.IDLE
        assert not job.is_terminal
        assert job.attempt_count == 0
        assert job.checkpoint == 0

    def test_terminal_states(self):
        job = Job("1.0", owner="a")
        for state, terminal in [
            (JobState.IDLE, False),
            (JobState.MATCHED, False),
            (JobState.RUNNING, False),
            (JobState.COMPLETED, True),
            (JobState.HELD, True),
            (JobState.REMOVED, True),
        ]:
            job.state = state
            assert job.is_terminal is terminal

    def test_to_classad_includes_requirements(self):
        job = Job("1.0", owner="a", requirements="TARGET.memory >= 64",
                  image_size=32 * 2**20)
        ad = job.to_classad()
        assert ad.value("jobid") == "1.0"
        assert ad.value("imagesize") == 32
        assert "requirements" in ad

    def test_attempt_succeeded(self):
        ok = ExecutionAttempt("m", 0.0, 1.0, result=ResultFile.completed(0))
        assert ok.succeeded
        bad = ExecutionAttempt("m", 0.0, 1.0,
                               result=ResultFile.environment(ErrorScope.JOB, "X"))
        assert not bad.succeeded
        none = ExecutionAttempt("m", 0.0, 1.0)
        assert not none.succeeded

    def test_corrupt_image_serialization(self):
        good = ProgramImage("a.class")
        assert good.serialized().startswith(b"\xca\xfe\xba\xbe")
        bad = ProgramImage("b.class", corrupt=True)
        assert not bad.serialized().startswith(b"\xca\xfe\xba\xbe")


class TestUserLog:
    def test_ordering_and_query(self):
        log = UserLog()
        log.log(1.0, "1.0", UserLogEventType.SUBMIT)
        log.log(2.0, "1.1", UserLogEventType.SUBMIT)
        log.log(3.0, "1.0", UserLogEventType.EXECUTE, "m1")
        assert len(log) == 3
        assert [e.type for e in log.events if e.job_id == "1.0"] == [
            UserLogEventType.SUBMIT, UserLogEventType.EXECUTE
        ]
        assert [e.time for e in log.events] == [1.0, 2.0, 3.0]

    def test_user_visible_errors(self):
        log = UserLog()
        log.log(1.0, "1.0", UserLogEventType.TERMINATED, "completed(exit=0)")
        log.log(2.0, "1.1", UserLogEventType.HELD, "error: whatever", error=True)
        log.log(3.0, "1.2", UserLogEventType.TERMINATED, "environment(X@JOB)",
                error=True)
        log.log(4.0, "1.3", UserLogEventType.SITE_FAILED, "absorbed")
        visible = [e for e in log.events if e.error]
        assert {e.job_id for e in visible} == {"1.1", "1.2"}

    def test_classification_is_structural_not_textual(self):
        # The flag, not the detail prose, decides visibility: a detail
        # that *mentions* "error" is not an error delivery by itself.
        log = UserLog()
        log.log(1.0, "1.0", UserLogEventType.TERMINATED, "error-shaped but clean")
        log.log(2.0, "1.1", UserLogEventType.HELD, "quota", error=True)
        assert [e.job_id for e in log.events if e.error] == ["1.1"]
        # The rendered format is unchanged by the new field.
        assert "error-shaped but clean" in str(log.events[0])
        assert str(log.events[0]).startswith(f"{1.0:10.3f}")

    def test_render(self):
        log = UserLog()
        log.log(1.5, "1.0", UserLogEventType.SUBMIT)
        text = log.render()
        assert "1.0" in text and "submit" in text


class TestProtocols:
    def test_job_details_defaults(self):
        details = JobDetails(
            job_id="1.0", universe="java", image_name="a.class",
            input_files=(), heap_request=1, program=None,
        )
        assert details.resume_from == 0
        assert details.credential is None

    def test_file_data_error_channel(self):
        good = FileData(name="f", data=b"x")
        assert not good.error
        bad = FileData(name="f", error="ENOENT")
        assert bad.error == "ENOENT" and bad.data == b""

    def test_job_result_variants(self):
        raw = JobResult(claim_id="c", exit_code=1)
        assert raw.result_file is None and not raw.starter_error
        scoped = JobResult(claim_id="c", result_file=b"status=completed\n")
        assert scoped.result_file is not None
        starter = JobResult(claim_id="c", starter_error="Evicted: x",
                            starter_error_scope="REMOTE_RESOURCE")
        assert ErrorScope[starter.starter_error_scope] is ErrorScope.REMOTE_RESOURCE

    def test_wire_sizes_sane(self):
        assert WireSize.CONTROL < WireSize.AD <= WireSize.FILE_CHUNK
