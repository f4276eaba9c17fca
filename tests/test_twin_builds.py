"""GF(p) images taken side by side in child processes: equal to the in-process images."""

import os
import signal
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import freealg
from freealg import cli, engine, quotient, tideal
from freealg.term import GF, FieldError

P0, P1 = quotient.SELECTION_PRIMES
SRC = os.path.dirname(os.path.dirname(os.path.abspath(freealg.__file__)))


@pytest.fixture(autouse=True)
def _no_children():
    # every test starts with no child, whatever an earlier test (such as a two-prime
    # verdict of test_engine) left running
    quotient.stop_twin_builders()


def _cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def _twins(variety, degree_cap=quotient.DEFAULT_DEGREE_CAP):
    return [quotient.ModularQuotient(variety, p, degree_cap) for p in (P0, P1)]


def _poly(variety, expr):
    return engine.candidate_polynomial(expr, variety, "direct")


def _count_batches(monkeypatch):
    calls = []
    add_batch = quotient.DenseModRREF.add_batch

    def counted(self, M):
        calls.append(M.shape[0])
        return add_batch(self, M)

    monkeypatch.setattr(quotient.DenseModRREF, "add_batch", counted)
    return calls


MONOMIALS = ["(t1 t2) t3", "((t1 t1) t2)(t3 t2)", "((t1 t2) t3)((t1 t2) t3)",
             "((t1 t1)(t1 t1))((t2 t2) t3)"]


@pytest.mark.parametrize("name,targets", [
    ("assosymmetric", MONOMIALS),
    ("jordan", MONOMIALS),
    ("lie_triple", MONOMIALS),
])
def test_child_builds_equal_in_process_builds(name, targets, monkeypatch):
    # the images the children take in their own towers are the in-process images
    variety = tideal.get_variety(name)
    polys = [_poly(variety, expr) for expr in targets]
    batches = _count_batches(monkeypatch)
    _cpus(monkeypatch, 1)
    serial = [quotient.poly_images(_twins(variety), poly) for poly in polys]
    assert batches and not quotient._BUILDERS
    batches.clear()
    _cpus(monkeypatch, 2)
    parallel = _twins(variety)
    assert [quotient.poly_images(parallel, poly) for poly in polys] == serial
    assert any(any(images) for images in serial)
    # every elimination ran in a child, and the parent's quotients hold nothing
    assert not batches and not any(q.comps for q in parallel)
    reports = quotient.stop_twin_builders()
    assert sorted(reports) == sorted((P0, P1))
    for report in reports.values():
        assert report["freealg"] == os.path.dirname(os.path.abspath(freealg.__file__))
        assert report["maxrss_mb"] > 0


def test_twins_count_cpus_without_an_affinity_api(monkeypatch):
    # as on macOS: os.cpu_count alone decides, an unknown count meaning one
    monkeypatch.delattr(os, "sched_getaffinity")
    quotient.stop_twin_builders()
    assym = tideal.get_variety("assosymmetric")
    poly = _poly(assym, "((t1 t1) t2) t3")
    batches = _count_batches(monkeypatch)
    for n in (None, 1):
        monkeypatch.setattr(os, "cpu_count", lambda: n)
        serial = quotient.poly_images(_twins(assym), poly)
        assert not quotient._BUILDERS                    # one CPU: no child
    assert batches
    batches.clear()
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert quotient.poly_images(_twins(assym), poly) == serial
    assert sorted(quotient._BUILDERS) == sorted((P0, P1))
    assert not batches                                   # every elimination ran in a child


def test_child_error_is_raised_with_its_type_and_message(monkeypatch):
    # q = 1/p0 puts p0 in the identities' denominators: GF(p0)'s child fails at its
    # first elimination, GF(p1)'s answers, and the parent raises p0's error
    variety = tideal.quasi_assosymmetric(Fraction(1, P0))
    poly = _poly(variety, "(t1 t2) t1")
    _cpus(monkeypatch, 1)
    with pytest.raises(FieldError) as serial:
        quotient.ModularQuotient(variety, P0).component((2, 1))
    _cpus(monkeypatch, 2)
    batches = _count_batches(monkeypatch)
    twins = _twins(variety)
    with pytest.raises(FieldError) as parallel:
        quotient.poly_images(twins, poly)
    assert str(parallel.value) == str(serial.value)
    assert not batches and not any(q.comps for q in twins)
    # p1's reply is left unread, and read before its next one
    assert not quotient._BUILDERS[P0].requests and quotient._BUILDERS[P1].requests
    # the children still answer after an error
    assym = tideal.get_variety("assosymmetric")
    poly = _poly(assym, "(t1 t1)(t2 t2)")
    assert quotient.poly_images(_twins(assym), poly) == \
        [quotient.ModularQuotient(assym, p).poly_image(poly) for p in (P0, P1)]


def test_a_target_over_the_degree_cap_asks_no_child(monkeypatch):
    _cpus(monkeypatch, 2)
    quotient.stop_twin_builders()
    assym = tideal.get_variety("assosymmetric")
    with pytest.raises(quotient.DegreeCapExceeded, match="exceeds degree cap 3"):
        quotient.poly_images(_twins(assym, degree_cap=3), _poly(assym, "(t1 t1)(t2 t2)"))
    assert not quotient._BUILDERS


def test_child_error_is_one_cli_line_with_exit_2(monkeypatch, capsys):
    # degree 8 above the cap 7, on the two-prime route: raised before any child is asked
    _cpus(monkeypatch, 2)
    argv = ["--degree-cap", "7", "check", "assym", "glen(t1,t2,t3)", "--mode", "plus"]
    assert cli.main(argv) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("freealg: error: ") and "exceeds degree cap 7" in line


def test_dead_child_raises_then_restarts(monkeypatch):
    assym = tideal.get_variety("assosymmetric")
    poly = _poly(assym, "(t1 t1) t2")
    _cpus(monkeypatch, 2)
    quotient.poly_images(_twins(assym), poly)
    dead = quotient._BUILDERS[P0].proc
    dead.terminate()
    dead.wait(timeout=30)
    with pytest.raises(quotient.BuildError, match=r"GF\(%d\).*exit status -%d"
                       % (P0, signal.SIGTERM)):
        quotient.poly_images(_twins(assym), poly)
    assert P0 not in quotient._BUILDERS and P1 in quotient._BUILDERS
    images = quotient.poly_images(_twins(assym), poly)
    assert quotient._BUILDERS[P0].proc.pid != dead.pid
    assert images == [quotient.ModularQuotient(assym, p).poly_image(poly) for p in (P0, P1)]


def test_clear_cache_stops_both_children(monkeypatch):
    monkeypatch.setattr(quotient, "_CACHE", {})
    _cpus(monkeypatch, 2)
    assym = tideal.get_variety("assosymmetric")
    quotient.poly_images(_twins(assym), _poly(assym, "t1 t2"))
    procs = [quotient._BUILDERS[p].proc for p in (P0, P1)]
    quotient.clear_cache()
    assert not quotient._BUILDERS
    assert [proc.returncode for proc in procs] == [0, 0]


def test_a_two_prime_verdict_asks_both_children_before_reading_a_reply(monkeypatch):
    # the two primes' towers build side by side: both requests go out before the
    # first reply is read
    monkeypatch.setattr(quotient, "_CACHE", {})
    _cpus(monkeypatch, 2)
    events, send, receive = [], quotient._TwinBuilder.send, quotient._TwinBuilder.receive

    def recorded_send(self, msg):
        events.append(("send", self.p))
        send(self, msg)

    def recorded_receive(self):
        events.append(("receive", self.p))
        return receive(self)

    monkeypatch.setattr(quotient._TwinBuilder, "send", recorded_send)
    monkeypatch.setattr(quotient._TwinBuilder, "receive", recorded_receive)
    batches = _count_batches(monkeypatch)
    v = engine.is_identity(tideal.get_variety("assosymmetric"), "lietriple(t1 t1, t2, t3 t3)",
                           0, "plus", exact_column_cap=0)
    assert v.is_identity and v.multidegrees == [(2, 2, 2)]
    assert any("modular" in w for w in v.warnings)
    assert events[:2] == [("send", P0), ("send", P1)]
    assert set(events[2:]) == {("receive", P0), ("receive", P1)}
    assert not batches                                   # every elimination ran in a child


@pytest.mark.parametrize("name,expr,mode", [
    ("assosymmetric", "lietriple(t1 t1, t2, t3 t3)", "plus"),
    ("jordan", "jor(t1, (t2 t2) t3)", "direct"),             # an identity at (3,2,1)
    ("lie_triple", "jor(t1, (t2 t2) t3)", "direct"),         # not one
])
def test_a_two_prime_verdict_installs_no_component_in_the_parent(name, expr, mode,
                                                                 monkeypatch):
    # the children take both images: the parent's GF(p) quotients stay empty, and
    # the verdict is the one-CPU verdict
    variety = tideal.get_variety(name)
    verdicts, held = [], []
    for ncpu in (1, 2):
        monkeypatch.setattr(quotient, "_CACHE", {})
        _cpus(monkeypatch, ncpu)
        v = engine.is_identity(variety, expr, 0, mode, exact_column_cap=0)
        verdicts.append((v.is_identity, v.multidegrees, v.warnings))
        twins = [quotient.get_quotient(variety, GF(p)) for p in (P0, P1)]
        held.append([bool(q.comps) for q in twins])
    assert verdicts[0] == verdicts[1]
    assert any("modular" in w for w in verdicts[1][2])
    assert held == [[True, True], [False, False]]


def test_a_coefficient_a_strategy_prime_divides_starts_no_child(monkeypatch):
    # the candidate is checked against both primes before either child is asked
    monkeypatch.setattr(quotient, "_CACHE", {})
    quotient.stop_twin_builders()
    _cpus(monkeypatch, 2)
    with pytest.raises(FieldError, match="denominator %d not invertible mod %d" % (P0, P0)):
        engine.is_identity(tideal.get_variety("assosymmetric"),
                           "1/%d lietriple(t1 t1, t1 t2, t2 t2)" % P0, 0, "plus")
    assert not quotient._BUILDERS


def test_an_image_request_raises_the_childs_error_with_its_type_and_message(monkeypatch):
    # q = 1/p0 puts p0 in the identities' denominators, not in the candidate's: the
    # child fails at its first elimination and the parent re-raises its error
    variety = tideal.quasi_assosymmetric(Fraction(1, P0))
    poly = engine.candidate_polynomial("t1 (t2 t3)", variety, "direct")
    _cpus(monkeypatch, 1)
    with pytest.raises(FieldError) as serial:
        quotient.poly_images([quotient.ModularQuotient(variety, P0)], poly)
    _cpus(monkeypatch, 2)
    batches = _count_batches(monkeypatch)
    q = quotient.ModularQuotient(variety, P0)
    with pytest.raises(FieldError) as parallel:
        quotient.poly_images([q], poly)
    assert str(parallel.value) == str(serial.value)
    assert not batches and not q.comps and not quotient._BUILDERS[P0].requests
    # the child still answers after an error
    assym = tideal.get_variety("assosymmetric")
    poly = engine.candidate_polynomial("t1 (t2 t3)", assym, "direct")
    assert quotient.poly_images([quotient.ModularQuotient(assym, P0)], poly) == \
        [quotient.ModularQuotient(assym, P0).poly_image(poly)]      # taken here


def test_a_child_that_dies_during_an_image_request_raises_then_restarts(monkeypatch):
    monkeypatch.setattr(quotient, "_CACHE", {})
    quotient.stop_twin_builders()            # fresh children, still starting when asked
    _cpus(monkeypatch, 2)
    killed, send = [], quotient._TwinBuilder.send

    def send_then_die(self, msg):
        send(self, msg)
        if self.p == P0 and not killed:
            self.proc.kill()
            killed.append(self.proc.pid)

    monkeypatch.setattr(quotient._TwinBuilder, "send", send_then_die)
    args = (tideal.get_variety("assosymmetric"), "lietriple(t1 t1, t2, t3 t3)", 0, "plus")
    with pytest.raises(quotient.BuildError, match=r"GF\(%d\).*exit status -%d"
                       % (P0, signal.SIGKILL)):
        engine.is_identity(*args, exact_column_cap=0)
    assert P0 not in quotient._BUILDERS and quotient._BUILDERS[P1].requests
    v = engine.is_identity(*args, exact_column_cap=0)
    assert v.is_identity and quotient._BUILDERS[P0].proc.pid != killed[0]
    # GF(p1)'s child answered the image no one read before the new one
    assert not any(b.requests for b in quotient._BUILDERS.values())


def test_an_image_request_is_answered_after_the_requests_asked_before_it(monkeypatch):
    # a request asked and not read yet: the next image is read after its reply, which
    # is dropped
    monkeypatch.setattr(quotient, "_CACHE", {})
    _cpus(monkeypatch, 2)
    assym = tideal.get_variety("assosymmetric")
    q = quotient.get_quotient(assym, GF(P0))
    builder = quotient._builder(P0)
    builder.ask(q, _poly(assym, "((t1 t1)(t2 t2))(t3 t3)"))
    replies, receive = [], quotient._TwinBuilder.receive

    def recorded_receive(self):
        replies.append(len(self.requests))
        return receive(self)

    monkeypatch.setattr(quotient._TwinBuilder, "receive", recorded_receive)
    poly = _poly(assym, "((t1 t1)(t2 t2))(t3 t2)")
    (image,) = quotient.poly_images([q], poly)
    assert replies == [2, 1] and not builder.requests and not q.comps
    _cpus(monkeypatch, 1)
    assert image and image == quotient.ModularQuotient(assym, P0).poly_image(poly)
    # the image of a component the parent holds is taken here, with no request
    _cpus(monkeypatch, 2)
    q.component((2, 1))
    held = _poly(assym, "(t1 t1) t2")
    assert quotient.poly_images([q], held) == \
        [quotient.ModularQuotient(assym, P0).poly_image(held)]
    assert len(replies) == 2


def test_stop_kills_a_child_with_an_image_request_in_flight(monkeypatch):
    _cpus(monkeypatch, 2)
    assym = tideal.get_variety("assosymmetric")
    poly = engine.candidate_polynomial("((t1 t1)(t1 t2))((t2 t2)(t3 t3))", assym, "direct")
    builder = quotient._builder(P0)
    builder.ask(quotient.ModularQuotient(assym, P0), poly)   # (3,3,2): seconds
    reports = quotient.stop_twin_builders()
    assert reports[P0] is None and builder.proc.returncode == -signal.SIGKILL
    assert not quotient._BUILDERS


def test_two_quotients_take_their_own_replies_from_one_child(monkeypatch):
    # as in a run that decides two varieties: both on GF(p0)'s child, asked back to
    # back, each image read in order
    monkeypatch.setattr(quotient, "_CACHE", {})
    quotient.stop_twin_builders()
    _cpus(monkeypatch, 2)
    batches = _count_batches(monkeypatch)
    assym, dual = (quotient.ModularQuotient(tideal.get_variety(name), P0)
                   for name in ("assosymmetric", "dual_assosymmetric"))
    poly = _poly(assym.variety, "((t1 t2) t3)(t4 t5)")
    images = quotient.poly_images([assym, dual], poly)
    assert not batches                                   # every elimination ran in the child
    assert list(quotient._BUILDERS) == [P0] and not assym.comps and not dual.comps
    _cpus(monkeypatch, 1)
    assert images == [quotient.ModularQuotient(q.variety, P0).poly_image(poly)
                      for q in (assym, dual)]
    assert images[0] != images[1]


def test_clear_cache_kills_a_child_with_a_request_in_flight(monkeypatch):
    monkeypatch.setattr(quotient, "_CACHE", {})
    _cpus(monkeypatch, 2)
    assym = tideal.get_variety("assosymmetric")
    builder = quotient._builder(P0)
    builder.ask(quotient.ModularQuotient(assym, P0),
                _poly(assym, "((t1 t1)(t1 t2))((t2 t2)(t3 t3))"))   # (3,3,2): seconds
    proc = builder.proc
    quotient.clear_cache()
    assert proc.returncode == -signal.SIGKILL
    assert not quotient._BUILDERS and not builder.requests
    # the next two-prime image reads its own reply, from a fresh child
    poly = _poly(assym, "(t1 t1)(t2 t2)")
    images = quotient.poly_images(_twins(assym), poly)
    assert quotient._BUILDERS[P0].proc.pid != proc.pid
    assert images == [quotient.ModularQuotient(assym, p).poly_image(poly) for p in (P0, P1)]


def test_an_interrupted_reply_kills_the_child(monkeypatch):
    # an image read half done leaves the stream out of step: the child is killed and
    # forgotten, and the next image comes from a fresh child
    _cpus(monkeypatch, 2)
    assym = tideal.get_variety("assosymmetric")
    poly = engine.candidate_polynomial("((t1 t1) t2) t3", assym, "direct")
    q = quotient.ModularQuotient(assym, P0)
    proc = quotient._builder(P0).proc

    def interrupted(fh):
        raise KeyboardInterrupt

    with monkeypatch.context() as patched:
        patched.setattr(quotient.pickle, "load", interrupted)
        with pytest.raises(KeyboardInterrupt):
            quotient.poly_images([q], poly)
    assert proc.returncode == -signal.SIGKILL
    assert P0 not in quotient._BUILDERS and not q.comps
    assert quotient.poly_images([q], poly) == [quotient.ModularQuotient(assym, P0).poly_image(poly)]
    assert quotient._BUILDERS[P0].proc.pid != proc.pid and not q.comps


SCRIPT = """\
import os, sys
sys.path.insert(0, {src!r})
os.sched_getaffinity = lambda pid: {{0, 1}}     # children even on a one-CPU host
from freealg import engine, quotient, tideal
assym = tideal.get_variety("assosymmetric")
v = engine.is_identity(assym, "lietriple(t1 t1, t2, t3 t3)", 0, "plus", exact_column_cap=0)
print(v.is_identity, *sorted(b.proc.pid for b in quotient._BUILDERS.values()), flush=True)
if len(sys.argv) > 1:
    input()
"""


def _script(tmp_path):
    path = tmp_path / "unguarded.py"
    path.write_text(SCRIPT.format(src=SRC))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return [sys.executable, str(path)], env


def test_unguarded_script_builds_through_children(tmp_path):
    # no __main__ guard: the children must never import the caller's script
    cmd, env = _script(tmp_path)
    run = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120)
    assert run.returncode == 0, run.stderr
    verdict, *pids = run.stdout.split()
    assert (verdict, len(pids)) == ("True", 2)         # one child per prime
    assert "Traceback" not in run.stderr


def _alive(pid):
    try:
        with open("/proc/%d/stat" % pid) as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def test_children_exit_when_the_parent_is_killed(tmp_path):
    cmd, env = _script(tmp_path)
    with subprocess.Popen(cmd + ["wait"], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                          text=True, env=env, cwd=tmp_path) as parent:
        try:
            pids = [int(x) for x in parent.stdout.readline().split()[1:]]
            assert len(pids) == 2 and all(map(_alive, pids))
        finally:
            parent.kill()
    deadline = time.monotonic() + 30
    while any(map(_alive, pids)) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not any(map(_alive, pids))


IN_FLIGHT = """\
import os, sys
sys.path.insert(0, {src!r})
os.sched_getaffinity = lambda pid: {{0, 1}}     # children even on a one-CPU host
from freealg import engine, quotient, tideal
assym = tideal.get_variety("assosymmetric")
q = quotient.ModularQuotient(assym, quotient.SELECTION_PRIMES[0])
poly = engine.candidate_polynomial("((t1 t1)(t1 t2))((t2 t2)(t3 t3))", assym, "direct")
builder = quotient._builder(q.p)
builder.ask(q, poly)                                # (3,3,2): seconds
print(builder.proc.pid, flush=True)
"""


def test_exit_with_a_request_in_flight_leaves_no_child(tmp_path):
    path = tmp_path / "in_flight.py"
    path.write_text(IN_FLIGHT.format(src=SRC))
    run = subprocess.run([sys.executable, str(path)], capture_output=True, text=True,
                         cwd=tmp_path, timeout=120)
    assert run.returncode == 0, run.stderr
    assert not _alive(int(run.stdout))
