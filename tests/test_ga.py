"""Genetic operators, generation loop, reproducibility."""

import bisect
import functools
import hashlib
import itertools
import math
import operator

import numpy as np
import pytest

import thermodiag.ga

from thermodiag.ga import (
    GAConfig,
    GAError,
    GAHistory,
    ScoredIndividual,
    _cut,
    _flip,
    _spin,
    _splice,
    _wheel,
    decode,
    encode,
    evolve,
    fitness,
    run_ga,
)

L = 22
FULL_MASK = (1,) * L


def config(**overrides):
    fields = dict(
        population_size=30,
        crossover_probability=0.8,
        mutation_probability=0.03,
        max_generations=400,
        rng_seed=0,
    )
    fields.update(overrides)
    return GAConfig(**fields)


def scored(bits) -> ScoredIndividual:
    J = float(sum(1 for b in bits if not b))  # OneMax-style objective
    return ScoredIndividual(tuple(bits), J, fitness(J))


def batched(score):
    """Lift a one-chromosome objective to the evaluator's list contract."""
    return lambda chromosomes: [score(bits) for bits in chromosomes]


@batched
def onemax(bits) -> float:
    return float(sum(1 for b in bits if not b))


class TestDecodeEncode:
    def test_named_loci(self):
        bits = [0] * L
        for node in (1, 5, 10, 16, 20):
            bits[node - 1] = 1
        assert decode(tuple(bits)) == {1, 5, 10, 16, 20}

    def test_sparse_pattern(self):
        bits = tuple(int(c) for c in "1000000010000000100000")
        assert len(bits) == L
        assert decode(bits) == {1, 9, 17}

    def test_all_zero_is_empty(self):
        assert decode((0,) * L) == frozenset()

    def test_encode_decode_round_trip(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            nodes = frozenset(rng.choice(L, size=rng.integers(0, 8), replace=False) + 1)
            assert decode(encode(nodes, L)) == nodes

    def test_encode_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            encode({0}, L)
        with pytest.raises(ValueError):
            encode({L + 1}, L)


class TestFitness:
    def test_fixed_points(self):
        assert fitness(0.0) == 1.0
        assert fitness(1.0) == 0.5

    def test_published_style_score(self):
        assert fitness(14.06) == 1.0 / 15.06
        assert abs(fitness(14.06) - 0.0664010624) < 1e-9

    def test_strictly_decreasing(self):
        rng = np.random.default_rng(2)
        values = np.sort(rng.uniform(0.0, 1e4, size=100))
        scores = [fitness(v) for v in values]
        assert all(a > b for a, b in zip(scores, scores[1:]))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            fitness(-1e-9)


def spin(population, u):
    """The array roulette over ``population`` at uniforms ``u``."""
    return _spin(_wheel(population), u)


class TestRoulette:
    def test_wheel_without_total_rejected(self):
        # every J overflowed to inf, so every fitness is 0
        pop = [ScoredIndividual((1,), math.inf, fitness(math.inf)),
               ScoredIndividual((0,), math.inf, fitness(math.inf))]
        with pytest.raises(GAError, match="no total"):
            spin(pop, np.random.default_rng(0).random())
        with pytest.raises(GAError, match="no total"):
            run_ga(config(), lambda chromosomes: [math.inf] * len(chromosomes), FULL_MASK)

    def test_dominant_individual_always_wins(self):
        pop = [
            ScoredIndividual((1,), 0.0, 1.0),
            ScoredIndividual((0,), 1e12, 1e-12),
            ScoredIndividual((0,), 1e12, 1e-12),
        ]
        rng = np.random.default_rng(0)
        assert (spin(pop, rng.random(200)) == 0).all()

    def test_three_to_one_frequencies(self):
        pop = [ScoredIndividual((1,), 0.0, 3.0), ScoredIndividual((0,), 0.0, 1.0)]
        rng = np.random.default_rng(123)
        n = 10_000
        hits = int((spin(pop, rng.random(n)) == 0).sum())
        assert abs(hits / n - 0.75) < 0.02

    def test_uniform_fitness_is_uniform_selection(self):
        pop = [ScoredIndividual((i,), 1.0, 0.5) for i in range(4)]
        rng = np.random.default_rng(77)
        n = 10_000
        counts = np.bincount(spin(pop, rng.random(n)), minlength=4)
        for c in counts:
            assert abs(c / n - 0.25) < 0.02


def cross(p1, p2, crossover_probability, rng):
    """One pair through the array operators: the decision and cut uniforms,
    both drawn whether crossing or not, and the splice; returns the two
    children and the cut."""
    cut = _cut(len(p1), crossover_probability, rng.random(), rng.random())
    c1, c2 = _splice(np.array([p1, p2], dtype=np.uint8), cut).tolist()
    return tuple(c1), tuple(c2), cut


class TestCrossover:
    def test_probability_zero_copies_parents(self):
        p1, p2 = (1,) * L, (0,) * L
        rng = np.random.default_rng(0)
        for _ in range(20):
            c1, c2, _ = cross(p1, p2, 0.0, rng)
            assert c1 == p1 and c2 == p2

    def test_single_point_cut_structure(self):
        p1, p2 = (1,) * L, (0,) * L
        rng = np.random.default_rng(4)
        c1, c2, _ = cross(p1, p2, 1.0, rng)
        # replay the stream: the decision uniform, then the cut uniform
        replay = np.random.default_rng(4)
        replay.random()
        cut = 1 + math.floor(replay.random() * (L - 1))
        assert c1 == p1[:cut] + p2[cut:]
        assert c2 == p2[:cut] + p1[cut:]
        assert 1 <= cut <= L - 1

    def test_identical_parents_unchanged(self):
        p = tuple(np.random.default_rng(1).integers(0, 2, L))
        rng = np.random.default_rng(2)
        for _ in range(10):
            c1, c2, _ = cross(p, p, 1.0, rng)
            assert c1 == p and c2 == p

    def test_bit_multiset_preserved_per_locus_pair(self):
        # 100 pairs spliced at once, as a generation splices them
        rng = np.random.default_rng(8)
        parents = rng.integers(0, 2, (100, 2, L)).astype(np.uint8)
        cuts = _cut(L, 0.8, rng.random(100), rng.random(100))
        children = _splice(parents, cuts)
        assert (np.sort(children, axis=1) == np.sort(parents, axis=1)).all()

    @pytest.mark.parametrize("length", [2, 3, 22, 33])
    def test_every_crossing_cut_inside_the_chromosome(self, length):
        u = np.concatenate([[0.0, np.nextafter(1.0, 0.0)],
                            np.random.default_rng(length).random(1000)])
        cuts = _cut(length, 1.0, np.zeros_like(u), u)
        assert cuts.min() == 1 and cuts.max() == length - 1
        assert cuts[1] == length - 1

    def test_cut_frequencies_uniform(self):
        # each cut of [1, L-1] within 0.01 of 1/21 (about 4.7 binomial sds)
        rng = np.random.default_rng(31)
        n = 10_000
        cuts = _cut(L, 1.0, rng.random(n), rng.random(n))
        counts = np.bincount(cuts, minlength=L + 1)
        assert counts[0] == counts[L] == 0
        for c in counts[1:L]:
            assert abs(c / n - 1 / (L - 1)) < 0.01


def flip(bits, mutation_probability, rng, mask):
    """Rows of bits through the array mutation, one block of draws a row."""
    bits = np.array(bits, dtype=np.uint8)
    return _flip(bits, rng.random(bits.shape), mutation_probability,
                 np.array(mask, dtype=np.uint8))


class TestMutate:
    def test_probability_zero_is_identity(self):
        bits = np.random.default_rng(3).integers(0, 2, L)
        assert (flip(bits, 0.0, np.random.default_rng(0), FULL_MASK) == bits).all()

    def test_probability_one_flips_every_maskable_bit(self):
        assert (flip((0,) * L, 1.0, np.random.default_rng(0), FULL_MASK) == 1).all()

    def test_masked_loci_always_zero(self):
        mask = tuple(1 if i % 3 == 0 else 0 for i in range(L))
        rng = np.random.default_rng(10)
        out = flip(np.ones((200, L)), 0.5, rng, mask)
        assert not out[:, np.array(mask) == 0].any()

    def test_flip_count_matches_binomial(self):
        rng = np.random.default_rng(100)
        p, trials = 0.03, 10_000
        flips = int(flip(np.zeros((trials, L)), p, rng, FULL_MASK).sum())
        mean = trials * L * p
        sd = math.sqrt(trials * L * p * (1 - p))
        assert abs(flips - mean) < 3 * sd

    def test_draw_count_independent_of_mask(self):
        # masked loci draw too, so a generation ends at the same stream
        # position whatever the mask
        pop = [scored(np.random.default_rng(i).integers(0, 2, L)) for i in range(30)]
        states = []
        for mask in ((1, 0) * (L // 2), FULL_MASK):
            rng = np.random.default_rng(6)
            evolve(pop, config(), rng, onemax, mask)
            states.append(rng.bit_generator.state)
        assert states[0] == states[1]


class TestEvolve:
    def test_population_size_preserved(self):
        pop = [scored(np.random.default_rng(i).integers(0, 2, L)) for i in range(30)]
        out = evolve(pop, config(), np.random.default_rng(1), onemax, FULL_MASK)
        assert len(out) == 30

    def test_elitism_keeps_best_J_non_increasing(self):
        cfg = config(rng_seed=3)
        rng = np.random.default_rng(cfg.rng_seed)
        pop = [scored(rng.integers(0, 2, L)) for _ in range(cfg.population_size)]
        best = min(ind.J for ind in pop)
        for _ in range(60):
            pop = evolve(pop, cfg, rng, onemax, FULL_MASK)
            generation_best = min(ind.J for ind in pop)
            assert generation_best <= best
            best = generation_best

    def test_no_operators_converges_to_homogeneous_copies(self):
        cfg = config(crossover_probability=0.0, mutation_probability=0.0)
        rng = np.random.default_rng(12)
        pop = [scored(rng.integers(0, 2, L)) for _ in range(cfg.population_size)]
        for _ in range(50):
            pop = evolve(pop, cfg, rng, onemax, FULL_MASK)
        patterns = {ind.chromosome for ind in pop}
        assert len(patterns) <= 2

    def test_mask_discipline_on_all_offspring(self):
        mask = tuple(1 if i < 5 else 0 for i in range(L))
        cfg = config(mutation_probability=0.2)
        rng = np.random.default_rng(4)
        pop = [scored(tuple(int(b) & m for b, m in zip(rng.integers(0, 2, L), mask)))
               for _ in range(cfg.population_size)]
        for _ in range(20):
            pop = evolve(pop, cfg, rng, onemax, mask)
            for ind in pop:
                assert all(b == 0 for b, m in zip(ind.chromosome, mask) if not m)


class TestRunGA:
    def test_constant_evaluator_stops_by_stagnation(self):
        best, history = run_ga(config(), batched(lambda bits: 7.0), FULL_MASK)
        assert best.J == 7.0
        assert best.f == fitness(7.0)
        # initial entry + 50 stagnant generations
        assert history.generations == 51

    def test_generation_cap_honored(self):
        best, history = run_ga(config(max_generations=30), onemax, FULL_MASK)
        assert history.generations <= 31

    def test_onemax_solved_on_most_seeds(self):
        solved = 0
        for seed in range(20):
            best, _ = run_ga(config(rng_seed=seed), onemax, FULL_MASK)
            solved += best.J == 0.0
        assert solved >= 19

    def test_deterministic_per_seed(self):
        best_a, hist_a = run_ga(config(rng_seed=17), onemax, FULL_MASK)
        best_b, hist_b = run_ga(config(rng_seed=17), onemax, FULL_MASK)
        assert best_a == best_b
        assert hist_a.best_J == hist_b.best_J
        assert hist_a.mean_fitness == hist_b.mean_fitness
        assert hist_a.best_individual == hist_b.best_individual

    def test_elitist_history_monotone(self):
        _, history = run_ga(config(rng_seed=2), onemax, FULL_MASK)
        assert all(a >= b for a, b in zip(history.best_J, history.best_J[1:]))

    def test_mean_fitness_is_a_left_to_right_sum(self):
        # one f = 1 among f ~ 1e-17: each addition from the left rounds back
        # to 1, where a compensated sum (math.fsum, and the builtin sum from
        # Python 3.12 on) keeps the small terms
        population = [ScoredIndividual((1,), 0.0, fitness(0.0))] + [
            ScoredIndividual((0,), 1e17, fitness(1e17)) for _ in range(40)]
        fs = [ind.f for ind in population]
        expected = functools.reduce(operator.add, fs) / len(fs)
        assert math.fsum(fs) / len(fs) != expected
        history = GAHistory()
        history.record(population)
        assert history.mean_fitness == [expected]
        assert type(history.mean_fitness[0]) is float

    def test_evaluator_failure_is_diagnosed(self):
        @batched
        def broken(bits):
            raise RuntimeError("boom")

        with pytest.raises(GAError, match="evaluator failed"):
            run_ga(config(), broken, FULL_MASK)

    def test_one_evaluator_call_per_generation(self):
        batches = []

        def counting(chromosomes):
            batches.append(len(chromosomes))
            return onemax(chromosomes)

        _, history = run_ga(config(max_generations=25), counting, FULL_MASK)
        assert batches == [30] * history.generations

    def test_individuals_carry_the_J_of_their_own_call(self):
        # an evaluator whose J for a chromosome changes from call to call;
        # two loci, so chromosomes repeat across generations
        calls = []

        def drifting(chromosomes):
            calls.append(len(chromosomes))
            return [float(len(calls))] * len(chromosomes)

        _, history = run_ga(config(max_generations=5, elitism=False), drifting, (1, 1))
        assert history.best_J == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]

    def test_mask_values_checked(self):
        for mask in ((0, 1, 2), ()):
            with pytest.raises(ValueError, match="mask"):
                run_ga(config(), onemax, mask)

    def test_masked_loci_never_evaluated(self):
        mask = tuple(1 if i % 4 == 0 else 0 for i in range(L))
        seen = set()

        def recording(chromosomes):
            seen.update(chromosomes)
            return onemax(chromosomes)

        run_ga(config(max_generations=40), recording, mask)
        assert seen and all(len(bits) == L for bits in seen)
        assert all(b == 0 for bits in seen for b, m in zip(bits, mask) if not m)

    def test_no_elitism_still_returns_best_ever_seen(self):
        best, history = run_ga(config(rng_seed=5, elitism=False), onemax, FULL_MASK)
        assert best.J == min(history.best_J)


class TestGAConfig:
    def test_odd_population_rejected(self):
        with pytest.raises(ValueError):
            config(population_size=31)

    def test_probabilities_bounded(self):
        with pytest.raises(ValueError):
            config(crossover_probability=1.5)
        with pytest.raises(ValueError):
            config(mutation_probability=-0.1)

    def test_fitness_objective_order_equivalence(self):
        rng = np.random.default_rng(14)
        values = rng.uniform(0.0, 100.0, size=50)
        by_J = int(np.argmin(values))
        by_f = int(np.argmax([fitness(v) for v in values]))
        assert by_J == by_f


def roulette(population, rng):
    """One spin: the first individual whose running fitness sum passes
    u times the total, the sums added left to right."""
    sums = list(itertools.accumulate(ind.f for ind in population))
    return population[bisect.bisect_right(sums, rng.random() * sums[-1])]


def one_point(p1, p2, crossover_probability, rng):
    """Single-point crossover: a decision uniform and a cut uniform u, both
    always drawn; when crossing, the cut is 1 + floor(u*(L-1)) in [1, L-1].
    A chromosome of one locus is never cut."""
    decision, u = rng.random(), rng.random()
    if decision < crossover_probability and len(p1) >= 2:
        cut = 1 + math.floor(u * (len(p1) - 1))
        return p1[:cut] + p2[cut:], p2[:cut] + p1[cut:]
    return p1, p2


def bit_flip(chromosome, mutation_probability, rng, mask):
    """One uniform per locus, masked loci too; a draw below the probability
    flips its bit, and masked loci stay 0."""
    draws = rng.random(len(chromosome)).tolist()
    return tuple((b ^ (u < mutation_probability)) & m
                 for b, u, m in zip(chromosome, draws, mask))


def per_pair_evolve(population, config, rng, evaluator, mask):
    """Reference generation, independent of the GA module's operators: each
    pair's draws and children made one pair at a time, in the order of the
    block's row: two spins, the crossover decision and cut, and two mutation
    blocks."""
    offspring = []
    while len(offspring) < config.population_size:
        p1 = roulette(population, rng).chromosome
        p2 = roulette(population, rng).chromosome
        c1, c2 = one_point(p1, p2, config.crossover_probability, rng)
        offspring.append(bit_flip(c1, config.mutation_probability, rng, mask))
        offspring.append(bit_flip(c2, config.mutation_probability, rng, mask))
    scored = [ScoredIndividual(c, J, fitness(J)) for c, J in zip(offspring, evaluator(offspring))]
    if config.elitism:
        def key(ind):
            return ind.J, sum(ind.chromosome), ind.chromosome
        best_parent = min(population, key=key)
        worst = max(range(len(scored)), key=lambda i: key(scored[i]))
        if key(best_parent) < key(scored[worst]):
            scored[worst] = best_parent
    return scored


def weighted(chromosomes):
    """An objective with many ties, so the order key's later fields matter."""
    return [float(sum((i % 3 + 1) * b for i, b in enumerate(c)) % 7 + 0.1 * sum(c))
            for c in chromosomes]


def recorded_run(cfg, mask):
    """run_ga with every evaluated generation kept."""
    batches = []

    def evaluator(chromosomes):
        batches.append(list(chromosomes))
        return weighted(chromosomes)

    best, history = run_ga(cfg, evaluator, mask)
    return batches, best, history


#: (chromosome length, config overrides, mask): both crossover extremes, no
#: and heavy mutation, no elitism, masks with zeros, and one locus, where the
#: crossover decision and cut uniforms are drawn but nothing is cut
STREAM_CASES = [
    (22, dict(rng_seed=0), (1,) * 22),
    (22, dict(rng_seed=1, crossover_probability=1.0, mutation_probability=0.2,
              elitism=False), tuple(int(i % 3 != 1) for i in range(22))),
    (5, dict(rng_seed=2, crossover_probability=0.0), (1, 0, 1, 1, 0)),
    (1, dict(rng_seed=3, mutation_probability=0.2), (1,)),
]

#: sha256 of repr((batches, best chromosome, best J, best_J, mean_fitness,
#: best_individual)) of each STREAM_CASES run, as the per-pair reference
#: generation gives them
STREAM_DIGESTS = [
    "537f30b8296e236936a2dd660406828e61609e7411233961657642bd8bdde8ea",
    "ac0b647a6ef270efae84b4446805698005b1ec8956d11aaec25ffdb28445f73a",
    "863702d4057fba24728b5b259df35051aecec8f65758da31ca03dfea97669da5",
    "96cdbe17b1195c34be20737922fd8189e4819d3f368ff99765adc4b55758a3ba",
]


def stream_config(**overrides):
    return config(**{**dict(population_size=10, max_generations=20), **overrides})


class TestArrayGeneration:
    """The array generation makes the per-pair reference's draws, in order."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("length, overrides, mask", STREAM_CASES + [
        (22, dict(crossover_probability=1.0, mutation_probability=0.0), (1,) * 22),
        (22, dict(crossover_probability=0.0, mutation_probability=0.2), (1,) * 22),
        (22, dict(elitism=False), (0, 1) * 11),
        (2, dict(crossover_probability=1.0, mutation_probability=0.2), (1, 1)),
        (1, dict(crossover_probability=1.0, elitism=False), (1,)),
        (22, dict(population_size=2), (1,) * 22),
        (1, dict(population_size=4, crossover_probability=1.0), (1,)),
    ])
    def test_same_populations_as_per_pair(self, monkeypatch, seed, length, overrides, mask):
        cfg = stream_config(**{**overrides, "rng_seed": seed})
        batches, best, history = recorded_run(cfg, mask)
        monkeypatch.setattr(thermodiag.ga, "evolve", per_pair_evolve)
        ref_batches, ref_best, ref_history = recorded_run(cfg, mask)
        assert all(len(c) == length for batch in batches for c in batch)
        assert batches == ref_batches
        assert best == ref_best
        assert vars(history) == vars(ref_history)

    @pytest.mark.parametrize("case, digest", zip(STREAM_CASES, STREAM_DIGESTS),
                             ids=[f"case{i}" for i in range(len(STREAM_CASES))])
    def test_stream_pinned(self, case, digest):
        # the reference generation and the array generation could drift
        # together only by the same change to both; the digests pin the
        # stream itself
        _, overrides, mask = case
        batches, best, history = recorded_run(stream_config(**overrides), mask)
        text = repr((batches, best.chromosome, best.J, history.best_J,
                     history.mean_fitness, history.best_individual))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize("case", STREAM_CASES)
    def test_memoising_evaluator_builds_each_individual_once(self, monkeypatch, case):
        _, overrides, mask = case
        cfg = stream_config(**overrides)
        ref_best, ref_history = run_ga(cfg, weighted, mask)
        cache = {}

        def memoised(chromosomes):
            # one float object per chromosome, returned again on every call
            return [cache.setdefault(c, J) for c, J in zip(chromosomes, weighted(chromosomes))]

        built = []

        class Counting(ScoredIndividual):
            def __post_init__(self):
                built.append(self.chromosome)
                super().__post_init__()

        monkeypatch.setattr(thermodiag.ga, "ScoredIndividual", Counting)
        best, history = run_ga(cfg, memoised, mask)
        assert (best.chromosome, best.J, best.f) == (ref_best.chromosome, ref_best.J, ref_best.f)
        assert vars(history) == vars(ref_history)
        assert sorted(built) == sorted(cache)

    def test_one_locus_draws_decision_without_cut(self):
        rng = np.random.default_rng(21)
        assert cross((1,), (0,), 1.0, rng) == ((1,), (0,), 1)
        reference = np.random.default_rng(21)
        reference.random(2)
        assert rng.random() == reference.random()
        for u in (0.0, 0.5, np.nextafter(1.0, 0.0)):
            assert _cut(1, 1.0, 0.0, u) == 1

    def test_initial_population_is_one_block(self):
        cfg = stream_config()
        mask = (1, 0, 1, 1, 0)
        batches, _, _ = recorded_run(cfg, mask)
        rows = np.random.default_rng(cfg.rng_seed).random((cfg.population_size, 5)).tolist()
        assert batches[0] == [tuple(int(u < 0.5) & m for u, m in zip(row, mask))
                              for row in rows]

    @pytest.mark.parametrize("length, overrides", [
        (22, dict(population_size=2)),
        # one locus: every decision crosses, but nothing is cut
        (1, dict(population_size=4, crossover_probability=1.0)),
        (5, dict(crossover_probability=1.0, mutation_probability=0.2)),
        (22, dict()),
    ])
    def test_one_generation_ends_at_the_per_pair_stream_position(self, length, overrides):
        cfg = stream_config(**overrides)
        mask = (1,) * length
        bits = np.random.default_rng(40).integers(0, 2, (cfg.population_size, length))
        chromosomes = [tuple(c) for c in bits.tolist()]
        population = [ScoredIndividual(c, J, fitness(J))
                      for c, J in zip(chromosomes, weighted(chromosomes))]
        rng, reference = np.random.default_rng(7), np.random.default_rng(7)
        children = evolve(population, cfg, rng, weighted, mask)
        assert children == per_pair_evolve(population, cfg, reference, weighted, mask)
        assert rng.bit_generator.state == reference.bit_generator.state
        # 4 + 2L uniforms a pair, whatever was crossed
        reference = np.random.default_rng(7)
        reference.random(cfg.population_size // 2 * (4 + 2 * length))
        assert rng.bit_generator.state == reference.bit_generator.state
