"""The benchmark workloads, driven only through divsym's public API.

Each workload has three parts:

* ``setup()`` builds the state the timed loop needs (corpus, default
  builds, and any diversified builds shared by many items).  It is
  deterministic, so the runner can repeat it to time it.
* ``items(state, rng)`` yields one input per timed item.  Inputs are made
  here, outside the timed region, because a faster program would need
  more of them than any fixed pool holds.
* ``run(state, item)`` is the timed work; ``check(state, item, out)`` is
  the untimed correctness oracle.

``tail_percentile`` is the percentile ``item_tail_ms`` reports: the
highest with at least ten samples beyond it at the item count a 50-second
run reaches (see README.md).

The program is called through module attributes (``diversify.build_...``)
so that the tracer can substitute wrapped functions at run time.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from divsym import cfi, collector, deltadata, diversify, image, progmodel, \
    replicate, symfile
from divsym.diversify import SeedTuple
from divsym.errors import DivsymError
from divsym.progmodel import BuildOptions

OPTS = BuildOptions()
# A fixed corpus: every seed diversifies and crashes the same program, so
# figures from different seeds measure the same work.  Program 0 of the
# medium corpus (308 functions) is also the reference point of the traced
# run.
CORPUS_SEED = 0xBE7C


@dataclass(frozen=True)
class Profile:
    """Input sizes: ``FULL`` for measurement, ``SMOKE`` for the tests."""
    size_class: str           # of the program both workloads use


FULL = Profile(size_class="medium")
SMOKE = Profile(size_class="small")
# The diversified builds triage-repeat crashes come from: the reference
# build and one more.  They are fixed, like the corpus; the seed draws the
# call chains.  Builds drawn from the seed made the delta sizes, which
# vary by about 10% from one seed tuple to the next, the noisiest figure.
REFERENCE_SEEDS = SeedTuple(11, 22, 33)
REPEAT_SEEDS = (REFERENCE_SEEDS, SeedTuple(44, 55, 66))
# The crash queue cycles through these indexes into REPEAT_SEEDS: two
# thirds of the crashes come from the reference build.  Reports on the
# second build take about a quarter longer.  With a fixed 2:1 share the
# median lies among the reference build's reports and the p80 tail among
# the other's; an even or random mix puts the median in the gap between
# the two, where it moves by up to 20% from one seed to the next.
CRASH_QUEUE = (0, 0, 1)


def random_seeds(rng):
    return SeedTuple(rng.getrandbits(64), rng.getrandbits(64),
                     rng.getrandbits(64))


def sample_chain(model, rng):
    """A random call chain down the model's call DAG, ending at a crash
    site; independent of divsym's own sampler so the oracle does not
    share code with the program."""
    by_name = {f.name: f for f in model.functions}
    f = rng.choice(model.functions)
    chain = []
    while True:
        if not f.call_sites or len(chain) >= 5 or rng.random() < 0.3:
            code = [b for b in f.blocks if b.kind == "code"]
            b = rng.choice(code)
            chain.append((f.name, b.index, rng.randrange(b.instr_count)))
            return tuple(chain)
        bi, ii, callee = rng.choice(f.call_sites)
        chain.append((f.name, bi, ii))
        f = by_name[callee]


@dataclass
class Program:
    """Server-side state for one program: its model and default build."""
    model: object
    default_sf: object
    log: object
    default_info: object


def default_program(model):
    dres, log = diversify.build_default(model, OPTS)
    return Program(model, dres.symfile, log,
                   image.crash_info(dres, None, model.module_name))


def make_delta(prog, seeds):
    """Build side of one shipped binary: build, replicate, diff, pack."""
    truth, dec = diversify.build_diversified(prog.model, seeds, OPTS)
    approx = replicate.replicate(prog.default_sf, prog.log, seeds, OPTS)
    patch = deltadata.diff(approx, truth.symfile)
    blob = deltadata.pack(deltadata.delta_from_options(seeds, OPTS, patch))
    return truth, dec, approx, blob


# ---------------------------------------------------------------------------
# ship


@dataclass(frozen=True)
class ShipItem:
    seeds: SeedTuple


@dataclass(frozen=True)
class ShipOut:
    truth_sf: object
    approx: object
    blob: bytes


class Ship:
    """Build farm: one diversified build and its packed delta per item."""
    name = "ship"
    tail_percentile = 60

    def __init__(self, profile):
        self.profile = profile

    def setup(self):
        model = progmodel.generate_corpus(CORPUS_SEED, 1,
                                          self.profile.size_class)[0]
        return default_program(model)

    def items(self, prog, rng):
        while True:
            yield ShipItem(random_seeds(rng))

    def run(self, prog, item):
        truth, _, approx, blob = make_delta(prog, item.seeds)
        return ShipOut(truth.symfile, approx, blob)

    def delta_bytes(self, item, out):
        return len(out.blob)

    def check(self, prog, item, out):
        """The delta must unpack to this item's seeds and options and patch
        the writer's approximation into the build-side truth, byte for
        byte.  The approximation is reused rather than replicated again:
        replication is a pure function of the default build, the log and
        the (checked) seeds and options."""
        try:
            dd = deltadata.unpack(out.blob)
            if dd.seeds != item.seeds or dd.options() != OPTS:
                return False
            exact = deltadata.apply(out.approx, dd.patch)
        except DivsymError:
            return False
        return symfile.emit_symbol_file(exact) == \
            symfile.emit_symbol_file(out.truth_sf)


# ---------------------------------------------------------------------------
# triage-repeat


@dataclass(frozen=True)
class TriageItem:
    chain: tuple
    blob: bytes
    dump_text: str


@dataclass
class TriageState:
    program: Program
    builds: tuple               # ((ImageInfo, blob), ...)
    _texts: dict = field(default_factory=dict)

    def reference_text(self, chain):
        text = self._texts.get(chain)
        if text is None:
            prog = self.program
            dump = collector.simulate_crash(prog.default_info, prog.model, chain)
            text = collector.trace_from_dump(dump, prog.default_sf).text()
            self._texts[chain] = text
        return text


class TriageRepeat:
    """Crash processor: parse one minidump and report it, per item.  Most
    crashes come from a few builds of one medium program."""
    name = "triage-repeat"
    tail_percentile = 80

    def __init__(self, profile):
        self.profile = profile

    def setup(self):
        model = progmodel.generate_corpus(CORPUS_SEED, 1,
                                          self.profile.size_class)[0]
        prog = default_program(model)
        builds = []
        for seeds in REPEAT_SEEDS:
            truth, dec, _, blob = make_delta(prog, seeds)
            builds.append((image.crash_info(truth, dec, model.module_name),
                           blob))
        return TriageState(prog, tuple(builds))

    def items(self, state, rng):
        prog = state.program
        for b in itertools.cycle(CRASH_QUEUE):
            info, blob = state.builds[b]
            chain = sample_chain(prog.model, rng)
            dump = collector.simulate_crash(info, prog.model, chain)
            yield TriageItem(chain, blob, collector.emit_minidump(dump))

    def run(self, state, item):
        prog = state.program
        dump = collector.parse_minidump(item.dump_text)
        return collector.report(dump, item.blob, prog.default_sf, prog.log)

    def delta_bytes(self, item, out):
        return len(item.blob)

    def check(self, state, item, trace):
        """Frames must name the call chain innermost first, the walk must
        end cleanly, and the text must equal the trace of the same chain
        on the default build (so it is the same for every build)."""
        want = [name for name, _, _ in reversed(item.chain)]
        if [f.function for f in trace.frames] != want:
            return False
        if trace.truncation != cfi.END_OF_STACK:
            return False
        return trace.text() == state.reference_text(item.chain)


WORKLOADS = {w.name: w for w in (Ship, TriageRepeat)}
