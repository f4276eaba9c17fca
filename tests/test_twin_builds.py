"""GF(p) twins built side by side in child processes: equal to the in-process build."""

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


def _partitions(n, largest):
    if n == 0:
        return [()]
    return [(k,) + rest for k in range(min(n, largest), 0, -1) for rest in _partitions(n - k, k)]


UP_TO_DEGREE_6 = [d for n in range(1, 7) for d in _partitions(n, n) if len(d) <= 3]


def _cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def _twins(variety, degree_cap=quotient.DEFAULT_DEGREE_CAP):
    return [quotient.ModularQuotient(variety, p, degree_cap) for p in (P0, P1)]


def _build(quotients, d):
    """The two-prime route: ask every quotient's child for d's tower, then take d."""
    for q in quotients:
        quotient.request_tower(q, d)
    for q in quotients:
        q.component(d)


def _record(comp):
    S = None if comp.S is None else comp.S.tobytes()
    nonpiv = None if comp.nonpiv is None else comp.nonpiv.tolist()
    return comp.dim, comp.rank, comp.selected, nonpiv, S, comp.mode, comp.paircols


def _count_batches(monkeypatch):
    calls = []
    add_batch = quotient.DenseModRREF.add_batch

    def counted(self, M):
        calls.append(M.shape[0])
        return add_batch(self, M)

    monkeypatch.setattr(quotient.DenseModRREF, "add_batch", counted)
    return calls


@pytest.mark.parametrize("name,targets", [
    ("assosymmetric", [(2, 2, 2)]),
    ("jordan", UP_TO_DEGREE_6),
    ("lie_triple", UP_TO_DEGREE_6),
])
def test_child_builds_equal_in_process_builds(name, targets, monkeypatch):
    variety = tideal.get_variety(name)
    batches = _count_batches(monkeypatch)
    _cpus(monkeypatch, 1)
    serial = _twins(variety)
    for d in targets:
        for q in serial:
            quotient.request_tower(q, d)
            assert not q._coming                         # one CPU: nothing asked
            q.component(d)
    assert batches
    batches.clear()
    _cpus(monkeypatch, 2)
    _build(_twins(variety), (1, 1, 1, 1))               # children holding other components
    batches.clear()
    parallel = _twins(variety)
    for d in targets:
        held = [dict(q.comps) for q in parallel]
        for q in parallel:
            quotient.request_tower(q, d)
            # the child builds only the zero-free components the quotient lacks
            assert all(all(e) and e not in q.comps for e in q._coming)
        _build(parallel, d)
        # what a quotient held stays as it was
        assert all(q.comps[e] is c for q, h in zip(parallel, held) for e, c in h.items())
    for s, q in zip(serial, parallel):
        # the children sent the zero-free components, in build order; the parent
        # makes the zero-padded relabelings from them when asked
        assert list(q.comps) == [d for d in s.comps if all(d)]
        for d, comp in s.comps.items():
            assert _record(q.component(d)) == _record(comp), d
        assert set(q.comps) == set(s.comps)
    assert not batches                                   # every elimination ran in a child
    reports = quotient.stop_twin_builders()
    assert sorted(reports) == sorted((P0, P1))
    for report in reports.values():
        assert report["freealg"] == os.path.dirname(os.path.abspath(freealg.__file__))
        assert report["maxrss_mb"] > 0


def test_a_zero_padded_target_is_relabeled_from_the_childrens_builds(monkeypatch):
    assym = tideal.get_variety("assosymmetric")
    d = (2, 0, 1, 1)
    _cpus(monkeypatch, 1)
    serial = _twins(assym)
    for q in serial:
        q.component(d)
    _cpus(monkeypatch, 2)
    batches = _count_batches(monkeypatch)
    parallel = _twins(assym)
    for q in parallel:
        quotient.request_tower(q, d)
        # the children build the zero-free components, the base (2,1,1) among them
        assert (2, 1, 1) in q._coming and all(all(e) for e in q._coming)
    for s, q in zip(serial, parallel):
        assert q.component(d).S is q.comps[(2, 1, 1)].S   # relabeled here
        for e, comp in s.comps.items():
            assert _record(q.component(e)) == _record(comp), e
    assert not batches                                   # every elimination ran in a child


def test_twins_count_cpus_without_an_affinity_api(monkeypatch):
    # as on macOS: os.cpu_count alone decides, an unknown count meaning one
    monkeypatch.delattr(os, "sched_getaffinity")
    assym = tideal.get_variety("assosymmetric")
    d = (2, 1, 1)
    batches = _count_batches(monkeypatch)
    for n in (None, 1):
        monkeypatch.setattr(os, "cpu_count", lambda: n)
        serial = _twins(assym)
        for q in serial:
            quotient.request_tower(q, d)
            assert not q._coming                         # one CPU: nothing asked
        assert [q.dim(d) for q in serial] == [16, 16]
    assert batches
    batches.clear()
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    parallel = _twins(assym)
    for q in parallel:
        quotient.request_tower(q, d)
        assert d in q._coming
    assert [q.dim(d) for q in parallel] == [16, 16]
    assert not batches                                   # every elimination ran in a child


def test_child_error_is_raised_with_its_type_and_message(monkeypatch):
    # q = 1/p0 puts p0 in the identities' denominators: GF(p0) fails at its first
    # elimination, in the child, which the parent only waits for
    variety = tideal.quasi_assosymmetric(Fraction(1, P0))
    _cpus(monkeypatch, 1)
    with pytest.raises(FieldError) as serial:
        quotient.ModularQuotient(variety, P0).component((2, 1))
    _cpus(monkeypatch, 2)
    batches = _count_batches(monkeypatch)
    q = quotient.ModularQuotient(variety, P0)
    quotient.request_tower(q, (2, 1))
    assert q._coming
    with pytest.raises(FieldError) as parallel:
        q.component((2, 1))
    assert str(parallel.value) == str(serial.value)
    assert not batches and not q._coming
    # the children still answer after an error
    twins = _twins(tideal.get_variety("assosymmetric"))
    _build(twins, (2, 2))
    assert [q.comps[(2, 2)].dim for q in twins] == [9, 9]       # the paper's degree-4 table


def test_a_target_over_the_degree_cap_asks_no_child(monkeypatch):
    _cpus(monkeypatch, 2)
    q = quotient.ModularQuotient(tideal.get_variety("assosymmetric"), P0, degree_cap=3)
    quotient.request_tower(q, (2, 2))
    assert not q._coming
    with pytest.raises(quotient.DegreeCapExceeded, match="exceeds degree cap 3"):
        q.component((2, 2))


def test_child_error_is_one_cli_line_with_exit_2(monkeypatch, capsys):
    # degree 8 above the cap 7, on the two-prime route: raised before any child is asked
    _cpus(monkeypatch, 2)
    argv = ["--degree-cap", "7", "check", "assym", "glen(t1,t2,t3)", "--mode", "plus"]
    assert cli.main(argv) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("freealg: error: ") and "exceeds degree cap 7" in line


def test_dead_child_raises_then_restarts(monkeypatch):
    assym = tideal.get_variety("assosymmetric")
    _cpus(monkeypatch, 2)
    _build(_twins(assym), (2, 1))
    dead = quotient._BUILDERS[P0].proc
    dead.terminate()
    dead.wait(timeout=30)
    with pytest.raises(quotient.BuildError, match=r"GF\(%d\).*exit status -%d"
                       % (P0, signal.SIGTERM)):
        _build(_twins(assym), (2, 1))
    assert P0 not in quotient._BUILDERS and P1 in quotient._BUILDERS
    twins = _twins(assym)
    _build(twins, (2, 1))
    assert quotient._BUILDERS[P0].proc.pid != dead.pid
    want = quotient.ModularQuotient(assym, P0).dim((2, 1))
    assert [q.comps[(2, 1)].dim for q in twins] == [want, want]


def test_clear_cache_stops_both_children(monkeypatch):
    monkeypatch.setattr(quotient, "_CACHE", {})
    _cpus(monkeypatch, 2)
    _build(_twins(tideal.get_variety("assosymmetric")), (1, 1))
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
        held.append([bool(q.comps or q._coming) for q in twins])
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


def test_an_image_request_is_answered_after_the_tower_asked_before_it(monkeypatch):
    # as when an exact build asked GF(p0)'s child for a tower and did not read it
    # all: the image is read after that tower's replies are installed
    monkeypatch.setattr(quotient, "_CACHE", {})
    _cpus(monkeypatch, 2)
    assym = tideal.get_variety("assosymmetric")
    q = quotient.get_quotient(assym, GF(P0))
    quotient.request_tower(q, (2, 2, 1))
    tower = set(q._coming)
    pending, receive = [], quotient._TwinBuilder.receive

    def recorded_receive(self):
        pending.append(len(q._coming))
        return receive(self)

    monkeypatch.setattr(quotient._TwinBuilder, "receive", recorded_receive)
    poly = engine.candidate_polynomial("((t1 t1)(t2 t2))(t3 t3)", assym, "direct")
    (image,) = quotient.poly_images([q], poly)
    assert pending == list(range(len(tower), -1, -1))
    assert set(q.comps) == tower and not q._coming
    # the image of a component the parent holds is taken here, with no request
    held = engine.candidate_polynomial("((t1 t1)(t2 t2)) t3", assym, "direct")
    assert quotient.poly_images([q], held) == \
        [quotient.ModularQuotient(assym, P0).poly_image(held)]
    assert len(pending) == len(tower) + 1
    _cpus(monkeypatch, 1)
    assert image and image == quotient.ModularQuotient(assym, P0).poly_image(poly)


def test_stop_kills_a_child_with_an_image_request_in_flight(monkeypatch):
    _cpus(monkeypatch, 2)
    assym = tideal.get_variety("assosymmetric")
    poly = engine.candidate_polynomial("((t1 t1)(t1 t2))((t2 t2)(t3 t3))", assym, "direct")
    builder = quotient._builder(P0)
    builder.ask(quotient.ModularQuotient(assym, P0), poly)   # (3,3,2): seconds
    reports = quotient.stop_twin_builders()
    assert reports[P0] is None and builder.proc.returncode == -signal.SIGKILL
    assert not quotient._BUILDERS


def test_an_exact_build_asks_one_child_for_its_whole_tower(monkeypatch):
    # [3,3,1], as in the D = shest check: GF(p0)'s child is asked for each zero-free
    # component of the tower once, as the build starts, before any QQ component, and
    # one child runs; GF(p0) alone lifts every replay
    monkeypatch.setattr(quotient, "_CACHE", {})
    quotient.stop_twin_builders()
    _cpus(monkeypatch, 2)
    events, send, build = [], quotient._TwinBuilder.send, quotient.ExactQuotient._build

    def recorded_send(self, msg):
        events.append(("ask", self.p, msg[3]))
        send(self, msg)

    def recorded_build(self, d):
        events.append(("build", d))
        return build(self, d)

    monkeypatch.setattr(quotient._TwinBuilder, "send", recorded_send)
    monkeypatch.setattr(quotient.ExactQuotient, "_build", recorded_build)
    batches = _count_batches(monkeypatch)
    qe = quotient.ExactQuotient(tideal.get_variety("assosymmetric"))
    qe.component((3, 3, 1))
    tower = quotient._tower((3, 3, 1), qe.flavor)
    first_build = [kind for kind, *_ in events].index("build")
    assert sorted(e for e in events if e[0] == "ask") == sorted(("ask", P0, e) for e in tower)
    assert events[:first_build] == [("ask", P0, e) for e in tower]
    assert list(quotient._BUILDERS) == [P0] and [t.p for t in qe._twins] == [P0]
    assert {d for d, c in qe.comps.items() if c.mode == "replay"} == \
        {(3, 2, 1), (2, 3, 1), (3, 3, 1)}
    assert not batches                                   # every elimination ran in the child
    assert not qe._twins[0]._coming


def test_two_quotients_take_their_own_replies_from_one_child(monkeypatch):
    # as in the tables workload, two varieties on GF(p0)'s child, asked back to back;
    # taking the second's component first reads the first's replies into the first
    monkeypatch.setattr(quotient, "_CACHE", {})
    quotient.stop_twin_builders()
    _cpus(monkeypatch, 2)
    batches = _count_batches(monkeypatch)
    assym, dual = (quotient.ModularQuotient(tideal.get_variety(name), P0)
                   for name in ("assosymmetric", "dual_assosymmetric"))
    quotient.request_tower(assym, (2, 2, 1))
    quotient.request_tower(dual, (1, 1, 1, 1))
    asked, child = list(assym._coming), quotient._BUILDERS[P0].proc
    dual.component((1, 1, 1, 1))
    assert list(assym.comps) == asked and not assym._coming and not dual._coming
    assert not batches                                   # every elimination ran in the child
    assert [b.proc for b in quotient._BUILDERS.values()] == [child]
    _cpus(monkeypatch, 1)
    for q in (assym, dual):
        serial = quotient.ModularQuotient(q.variety, P0)
        for d, comp in q.comps.items():
            assert _record(comp) == _record(serial.component(d)), d


def test_clear_cache_kills_a_child_with_a_request_in_flight(monkeypatch):
    monkeypatch.setattr(quotient, "_CACHE", {})
    _cpus(monkeypatch, 2)
    assym = tideal.get_variety("assosymmetric")
    q = quotient.ModularQuotient(assym, P0)
    quotient.request_tower(q, (3, 3, 2))               # many seconds of builds
    proc = quotient._BUILDERS[P0].proc
    assert q._coming
    quotient.clear_cache()
    assert proc.returncode == -signal.SIGKILL
    assert not quotient._BUILDERS and not q._coming
    # the next two-prime build reads its own replies, from a fresh child
    twins = _twins(assym)
    _build(twins, (2, 2))
    assert quotient._BUILDERS[P0].proc.pid != proc.pid
    assert [t.comps[(2, 2)].dim for t in twins] == [9, 9]       # the paper's degree-4 table
    # q forgot what it awaited: it builds in process
    assert (3, 3, 2) not in q.comps
    assert q.dim((2, 1, 1)) == quotient.ModularQuotient(assym, P0).dim((2, 1, 1))


def test_an_interrupted_reply_kills_the_child(monkeypatch):
    # a reply half read leaves the stream out of step: the child is killed and
    # forgotten, and the quotient builds what it awaited in process
    _cpus(monkeypatch, 2)
    assym = tideal.get_variety("assosymmetric")
    q = quotient.ModularQuotient(assym, P0)
    quotient.request_tower(q, (2, 2))
    proc = quotient._BUILDERS[P0].proc

    def interrupted(fh):
        raise KeyboardInterrupt

    with monkeypatch.context() as patched:
        patched.setattr(quotient.pickle, "load", interrupted)
        with pytest.raises(KeyboardInterrupt):
            q.component((2, 2))
    assert proc.returncode == -signal.SIGKILL
    assert P0 not in quotient._BUILDERS and not q._coming
    assert q.dim((2, 2)) == 9                                   # the paper's degree-4 table
    # so does an image read half done; the next image comes from a fresh child
    poly = engine.candidate_polynomial("((t1 t1) t2) t3", assym, "direct")
    q = quotient.ModularQuotient(assym, P0)
    proc = quotient._builder(P0).proc
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
from freealg import quotient, tideal
quotient.FULL_COLS_CAP = 20
assym = tideal.get_variety("assosymmetric")
comp = quotient.ExactQuotient(assym).component((2, 1, 1))
print(comp.mode, comp.dim, *sorted(b.proc.pid for b in quotient._BUILDERS.values()), flush=True)
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
    mode, dim, *pids = run.stdout.split()
    # one child: GF(p0) alone lifts every component of (2,1,1)
    assert (mode, int(dim), len(pids)) == ("replay", 16, 1)
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
            pids = [int(x) for x in parent.stdout.readline().split()[2:]]
            assert len(pids) == 1 and all(map(_alive, pids))
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
from freealg import quotient, tideal
q = quotient.ModularQuotient(tideal.get_variety("assosymmetric"), quotient.SELECTION_PRIMES[0])
quotient.request_tower(q, (3, 3, 2))
print(quotient._BUILDERS[q.p].proc.pid, flush=True)
"""


def test_exit_with_a_request_in_flight_leaves_no_child(tmp_path):
    path = tmp_path / "in_flight.py"
    path.write_text(IN_FLIGHT.format(src=SRC))
    run = subprocess.run([sys.executable, str(path)], capture_output=True, text=True,
                         cwd=tmp_path, timeout=120)
    assert run.returncode == 0, run.stderr
    assert not _alive(int(run.stdout))
