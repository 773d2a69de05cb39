"""Tests for the classification table and the result file."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.classify import DEFAULT_CLASSIFIER, ExceptionClassifier
from repro.core.result import ResultFile, ResultStatus
from repro.core.scope import ErrorScope


class TestClassifier:
    def test_figure_4_rows(self):
        """The five exceptional rows of Figure 4, via the wrapper's table."""
        c = DEFAULT_CLASSIFIER
        # "The program de-referenced a null pointer." -> Program
        assert c.classify("java", "NullPointerException").scope is ErrorScope.PROGRAM
        # "There was not enough memory for the program." -> Virtual Machine
        assert c.classify("java", "OutOfMemoryError").scope is ErrorScope.VIRTUAL_MACHINE
        # "The Java installation is misconfigured." -> Remote Resource
        assert (
            c.classify("condor", "JvmMisconfigured").scope is ErrorScope.REMOTE_RESOURCE
        )
        # "The home file system was offline." -> Local Resource
        assert (
            c.classify("java", "ConnectionTimedOutException").scope
            is ErrorScope.LOCAL_RESOURCE
        )
        # "The program image was corrupt." -> Job
        assert c.classify("java", "ClassFormatError").scope is ErrorScope.JOB

    def test_section_2_3_examples(self):
        c = DEFAULT_CLASSIFIER
        assert (
            c.classify("java", "ArrayIndexOutOfBoundsException").scope
            is ErrorScope.PROGRAM
        )
        assert c.classify("java", "VirtualMachineError").scope is ErrorScope.VIRTUAL_MACHINE

    def test_fs_code_mapping(self):
        c = DEFAULT_CLASSIFIER
        assert c.classify("fs", "ENOENT").canonical == "FileNotFound"
        assert c.classify("fs", "ENOENT").scope is ErrorScope.FILE
        assert c.classify("fs", "EIO").scope is ErrorScope.LOCAL_RESOURCE
        assert c.classify("fs", "ENOSPC").canonical == "DiskFull"

    def test_net_codes_are_process_scope(self):
        """'A failure in remote procedure call has process scope.' (§3.3)"""
        c = DEFAULT_CLASSIFIER
        for code in ("ECONNRESET", "ETIMEDOUT", "ECONNREFUSED"):
            assert c.classify("net", code).scope is ErrorScope.PROCESS

    def test_chirp_codes(self):
        c = DEFAULT_CLASSIFIER
        assert c.classify("chirp", "NOT_FOUND").canonical == "FileNotFound"
        assert (
            c.classify("chirp", "CREDENTIAL_EXPIRED").scope is ErrorScope.LOCAL_RESOURCE
        )

    def test_unknown_java_error_heuristic(self):
        got = DEFAULT_CLASSIFIER.classify("java", "SomeNovelError")
        assert got.scope is ErrorScope.VIRTUAL_MACHINE
        assert not got.known

    def test_unknown_java_exception_heuristic(self):
        got = DEFAULT_CLASSIFIER.classify("java", "UserDefinedException")
        assert got.scope is ErrorScope.PROGRAM
        assert not got.known

    def test_unknown_namespace_conservative(self):
        got = DEFAULT_CLASSIFIER.classify("mystery", "Whatever")
        assert got.scope is ErrorScope.JOB and not got.known

    def test_custom_registration_overrides_heuristic(self):
        c = ExceptionClassifier()
        c.register("java", "PigeonLostError", ErrorScope.LOCAL_RESOURCE, "PigeonLost")
        got = c.classify("java", "PigeonLostError")
        assert got.scope is ErrorScope.LOCAL_RESOURCE
        assert got.canonical == "PigeonLost"
        assert got.known
        assert not c.classify("java", "Other").known


class TestResultFile:
    def test_completed_round_trip(self):
        rf = ResultFile.completed(7)
        parsed = ResultFile.parse(rf.serialize())
        assert parsed == rf
        assert parsed.is_program_result

    def test_exception_round_trip(self):
        rf = ResultFile.exception("NullPointerException", detail="at Main.java:3")
        parsed = ResultFile.parse(rf.serialize())
        assert parsed == rf
        assert parsed.is_program_result

    def test_environment_round_trip(self):
        rf = ResultFile.environment(
            ErrorScope.REMOTE_RESOURCE, "JvmMisconfigured", "bad classpath"
        )
        parsed = ResultFile.parse(rf.serialize())
        assert parsed == rf
        assert not parsed.is_program_result

    def test_environment_is_never_program_result(self):
        for scope in ErrorScope:
            rf = ResultFile.environment(scope, "E")
            assert not rf.is_program_result

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            ResultFile.parse(b"not a result file")
        with pytest.raises(ValueError):
            ResultFile.parse(b"status=nonsense\n")
        with pytest.raises(ValueError):
            ResultFile.parse(b"exit_code=1\n")

    def test_parse_rejects_bad_scope(self):
        with pytest.raises(ValueError):
            ResultFile.parse(b"status=environment\nerror=X\n")

    def test_str_forms(self):
        assert "exit=3" in str(ResultFile.completed(3))
        assert "NullPointerException" in str(ResultFile.exception("NullPointerException"))
        assert "remote-resource" in str(
            ResultFile.environment(ErrorScope.REMOTE_RESOURCE, "X")
        )

    @given(st.integers(min_value=0, max_value=255))
    def test_property_exit_codes_round_trip(self, code):
        assert ResultFile.parse(ResultFile.completed(code).serialize()).exit_code == code

    @given(
        st.sampled_from(list(ErrorScope)),
        st.text(
            alphabet=st.characters(min_codepoint=33, max_codepoint=126, exclude_characters="="),
            min_size=1,
            max_size=30,
        ),
    )
    def test_property_environment_round_trip(self, scope, name):
        rf = ResultFile.environment(scope, name)
        parsed = ResultFile.parse(rf.serialize())
        assert parsed.scope is scope and parsed.error_name == name
