"""Genetic operators, generation loop, reproducibility."""

import hashlib
import math

import numpy as np
import pytest

import thermodiag.ga

from thermodiag.ga import (
    GAConfig,
    GAError,
    ScoredIndividual,
    crossover,
    decode,
    encode,
    evolve,
    fitness,
    mutate,
    run_ga,
    select_roulette,
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


class TestRoulette:
    def test_empty_population_rejected(self):
        with pytest.raises(GAError):
            select_roulette([], np.random.default_rng(0))

    def test_dominant_individual_always_wins(self):
        pop = [
            ScoredIndividual((1,), 0.0, 1.0),
            ScoredIndividual((0,), 1e12, 1e-12),
            ScoredIndividual((0,), 1e12, 1e-12),
        ]
        rng = np.random.default_rng(0)
        assert all(select_roulette(pop, rng) is pop[0] for _ in range(200))

    def test_three_to_one_frequencies(self):
        pop = [ScoredIndividual((1,), 0.0, 3.0), ScoredIndividual((0,), 0.0, 1.0)]
        rng = np.random.default_rng(123)
        n = 10_000
        hits = sum(select_roulette(pop, rng) is pop[0] for _ in range(n))
        assert abs(hits / n - 0.75) < 0.02

    def test_uniform_fitness_is_uniform_selection(self):
        pop = [ScoredIndividual((i,), 1.0, 0.5) for i in range(4)]
        rng = np.random.default_rng(77)
        n = 10_000
        counts = [0, 0, 0, 0]
        for _ in range(n):
            counts[select_roulette(pop, rng).chromosome[0]] += 1
        for c in counts:
            assert abs(c / n - 0.25) < 0.02

    def test_consumes_exactly_one_draw(self):
        pop = [ScoredIndividual((1,), 0.0, 1.0), ScoredIndividual((0,), 1.0, 0.5)]
        rng = np.random.default_rng(9)
        select_roulette(pop, rng)
        reference = np.random.default_rng(9)
        reference.random()
        assert rng.random() == reference.random()


class TestCrossover:
    def test_probability_zero_copies_parents(self):
        p1, p2 = (1,) * L, (0,) * L
        rng = np.random.default_rng(0)
        for _ in range(20):
            c1, c2 = crossover(p1, p2, 0.0, rng)
            assert c1 == p1 and c2 == p2

    def test_single_point_cut_structure(self):
        p1, p2 = (1,) * L, (0,) * L
        rng = np.random.default_rng(4)
        c1, c2 = crossover(p1, p2, 1.0, rng)
        # replay the stream: one decision draw, then the cut
        replay = np.random.default_rng(4)
        replay.random()
        cut = int(replay.integers(1, L))
        assert c1 == p1[:cut] + p2[cut:]
        assert c2 == p2[:cut] + p1[cut:]
        assert 1 <= cut <= L - 1

    def test_identical_parents_unchanged(self):
        p = tuple(np.random.default_rng(1).integers(0, 2, L))
        rng = np.random.default_rng(2)
        for _ in range(10):
            c1, c2 = crossover(p, p, 1.0, rng)
            assert c1 == p and c2 == p

    def test_bit_multiset_preserved_per_locus_pair(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            p1 = tuple(rng.integers(0, 2, L))
            p2 = tuple(rng.integers(0, 2, L))
            c1, c2 = crossover(p1, p2, 0.8, rng)
            for k in range(L):
                assert sorted((c1[k], c2[k])) == sorted((p1[k], p2[k]))

    def test_length_mismatch_rejected(self):
        with pytest.raises(GAError):
            crossover((0, 1), (0, 1, 1), 0.5, np.random.default_rng(0))


class TestMutate:
    def test_probability_zero_is_identity(self):
        bits = tuple(np.random.default_rng(3).integers(0, 2, L))
        assert mutate(bits, 0.0, np.random.default_rng(0), FULL_MASK) == bits

    def test_probability_one_flips_every_maskable_bit(self):
        bits = (0,) * L
        assert mutate(bits, 1.0, np.random.default_rng(0), FULL_MASK) == (1,) * L

    def test_masked_loci_always_zero(self):
        mask = tuple(1 if i % 3 == 0 else 0 for i in range(L))
        rng = np.random.default_rng(10)
        for _ in range(200):
            out = mutate((1,) * L, 0.5, rng, mask)
            assert all(b == 0 for b, m in zip(out, mask) if not m)

    def test_flip_count_matches_binomial(self):
        rng = np.random.default_rng(100)
        p, trials = 0.03, 10_000
        flips = 0
        zero = (0,) * L
        for _ in range(trials):
            flips += sum(mutate(zero, p, rng, FULL_MASK))
        mean = trials * L * p
        sd = math.sqrt(trials * L * p * (1 - p))
        assert abs(flips - mean) < 3 * sd

    def test_draw_count_independent_of_mask(self):
        mask = (1, 0) * (L // 2)
        rng = np.random.default_rng(6)
        mutate((0,) * L, 0.5, rng, mask)
        reference = np.random.default_rng(6)
        reference.random(L)
        assert rng.random() == reference.random()


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


def per_pair_evolve(population, config, rng, evaluator, mask):
    """Reference generation: each pair's draws and children made one pair at
    a time by the one-row operators, as the generation was first written."""
    offspring = []
    while len(offspring) < config.population_size:
        p1 = select_roulette(population, rng).chromosome
        p2 = select_roulette(population, rng).chromosome
        c1, c2 = crossover(p1, p2, config.crossover_probability, rng)
        offspring.append(mutate(c1, config.mutation_probability, rng, mask))
        offspring.append(mutate(c2, config.mutation_probability, rng, mask))
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
#: crossover decision is drawn but no cut
STREAM_CASES = [
    (22, dict(rng_seed=0), (1,) * 22),
    (22, dict(rng_seed=1, crossover_probability=1.0, mutation_probability=0.2,
              elitism=False), tuple(int(i % 3 != 1) for i in range(22))),
    (5, dict(rng_seed=2, crossover_probability=0.0), (1, 0, 1, 1, 0)),
    (1, dict(rng_seed=3, mutation_probability=0.2), (1,)),
]

#: sha256 of repr((batches, best chromosome, best J, best_J, mean_fitness,
#: best_individual)) of each STREAM_CASES run, as the per-pair generation
#: gave them
STREAM_DIGESTS = [
    "b409ad439ff73a429fe8bdc0da3a3a195931272e64d6a94a14e0a41c06cbd53d",
    "6bd9b8b07c9e606502a6f77c1fc0320bb885cda9d6a8e9726eea854487c03dbe",
    "da222817d5fd007cf5d9f6fad3b920704f60783abbb2ed079da71cc7d617dcdd",
    "ee28d67285cba65f8daac2720a789ab666b5b1343fcc5df53ff71c9443f478aa",
]


def stream_config(**overrides):
    return config(**{**dict(population_size=10, max_generations=20), **overrides})


class TestArrayGeneration:
    """The array generation makes the per-pair generation's draws, in order."""

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

    @pytest.mark.parametrize("case, digest", zip(STREAM_CASES, STREAM_DIGESTS))
    def test_stream_pinned(self, case, digest):
        # the one-row operators share the draw helpers with the array
        # generation, so a change to a draw rule moves both; the digests
        # pin the stream itself
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
        assert crossover((1,), (0,), 1.0, rng) == ((1,), (0,))
        reference = np.random.default_rng(21)
        reference.random()
        assert rng.random() == reference.random()

    @pytest.mark.parametrize("length, overrides", [
        # one pair: its mutation blocks are drawn with no next-pair uniforms
        (22, dict(population_size=2)),
        # one locus: every decision is drawn and crosses, but nothing is cut
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
