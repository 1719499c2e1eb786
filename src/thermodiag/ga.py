"""Binary-chromosome genetic algorithm with roulette-wheel reproduction.

The algorithm is generic over the evaluator: a chromosome is a fixed-length
tuple of bits, the evaluator maps a list of chromosomes to their
non-negative objectives J (one call per generation), and the fitness
maximised by selection is f = 1/(1+J).

Chromosome bits are aligned with mesh node ids (bit k, 1-based, selects node
k), and the chromosome excludes the output air node, so its length is one
less than the node count.  Loci of nodes without a measurement are kept at
zero by a mask, given to :func:`run_ga`, rather than by shortening the
string.

Reproducibility: every stochastic draw comes from one sequential generator,
consumed in a fixed order per pair of children (parent selection, parent
selection, crossover decision, cut point if crossing, one mutation block per
child).  Objective evaluations draw nothing, so the stream does not depend on
the evaluator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Chromosome",
    "GAConfig",
    "ScoredIndividual",
    "GAHistory",
    "GAError",
    "decode",
    "encode",
    "fitness",
    "select_roulette",
    "crossover",
    "mutate",
    "evolve",
    "run_ga",
]

Chromosome = tuple  # of 0/1 ints
Evaluator = Callable[[list], Sequence[float]]  # chromosomes -> their J values

#: Stop when the best J has not improved by more than this for
#: STAGNATION_WINDOW consecutive generations.
STAGNATION_EPS = 1e-12
STAGNATION_WINDOW = 50


class GAError(Exception):
    """Evaluator failure or invalid GA state."""


@dataclass(frozen=True)
class GAConfig:
    """Control parameters of one GA run."""

    population_size: int
    crossover_probability: float       # applied per pair
    mutation_probability: float        # applied per bit
    max_generations: int
    rng_seed: int
    elitism: bool = True

    def __post_init__(self):
        if self.population_size < 2 or self.population_size % 2:
            raise ValueError("population_size must be even and >= 2")
        if not 0.0 <= self.crossover_probability <= 1.0:
            raise ValueError("crossover_probability outside [0, 1]")
        if not 0.0 <= self.mutation_probability <= 1.0:
            raise ValueError("mutation_probability outside [0, 1]")
        if self.max_generations < 1:
            raise ValueError("max_generations must be >= 1")


@dataclass(frozen=True)
class ScoredIndividual:
    chromosome: Chromosome
    J: float  # °C²
    f: float  # 1/(1+J)


@dataclass
class GAHistory:
    """Per-generation trace; entry 0 describes the initial population."""

    best_J: list = field(default_factory=list)
    best_fitness: list = field(default_factory=list)
    mean_fitness: list = field(default_factory=list)
    best_individual: list = field(default_factory=list)

    @property
    def generations(self) -> int:
        return len(self.best_J)

    def record(self, population: Sequence[ScoredIndividual]) -> None:
        best = min(population, key=_order_key)
        self.best_J.append(best.J)
        self.best_fitness.append(best.f)
        self.mean_fitness.append(sum(ind.f for ind in population) / len(population))
        self.best_individual.append(best.chromosome)


def decode(chromosome: Chromosome) -> frozenset:
    """Set bits to node ids: bit at index i selects node i + 1."""
    return frozenset(i + 1 for i, b in enumerate(chromosome) if b)


def encode(nodes, length: int) -> Chromosome:
    """Inverse of :func:`decode`."""
    bits = [0] * length
    for node in nodes:
        if not 1 <= node <= length:
            raise ValueError(f"node {node} outside chromosome range 1..{length}")
        bits[node - 1] = 1
    return tuple(bits)


def fitness(J: float) -> float:
    """Map the objective to a maximisable score in (0, 1]: f = 1/(1+J)."""
    if J < 0.0:
        raise ValueError("objective J must be >= 0")
    return 1.0 / (1.0 + J)


def _order_key(ind: ScoredIndividual):
    # total order: lower J first, then fewer forced nodes, then the
    # lexicographically smallest bit pattern
    return (ind.J, sum(ind.chromosome), ind.chromosome)


def select_roulette(population: Sequence[ScoredIndividual],
                    rng: np.random.Generator) -> ScoredIndividual:
    """Fitness-proportionate selection; consumes exactly one draw."""
    if not population:
        raise GAError("cannot select from an empty population")
    wheel = np.cumsum([ind.f for ind in population])
    pick = rng.random() * wheel[-1]
    return population[int(np.searchsorted(wheel, pick, side="right"))]


def crossover(p1: Chromosome, p2: Chromosome, crossover_probability: float,
              rng: np.random.Generator) -> tuple[Chromosome, Chromosome]:
    """Single-point crossover with the given probability, else plain copies."""
    if len(p1) != len(p2):
        raise GAError("parents must have equal length")
    length = len(p1)
    if rng.random() < crossover_probability and length >= 2:
        cut = int(rng.integers(1, length))  # in [1, L-1]
        return p1[:cut] + p2[cut:], p2[:cut] + p1[cut:]
    return tuple(p1), tuple(p2)


def mutate(chromosome: Chromosome, mutation_probability: float,
           rng: np.random.Generator, mask: Sequence) -> Chromosome:
    """Flip each maskable bit independently; masked loci stay 0.

    One uniform is drawn per locus (masked ones included) so the stream
    position does not depend on the mask contents.
    """
    draws = rng.random(len(chromosome))
    return tuple(
        (b ^ 1 if u < mutation_probability else b) if m else 0
        for b, u, m in zip(chromosome, draws, mask)
    )


def _score(bits_list, evaluator: Evaluator) -> list[ScoredIndividual]:
    try:
        scores = [float(J) for J in evaluator(list(bits_list))]
    except Exception as exc:
        raise GAError(
            f"evaluator failed on a generation of {len(bits_list)} chromosomes: {exc}") from exc
    if len(scores) != len(bits_list):
        raise GAError(f"evaluator returned {len(scores)} scores for {len(bits_list)} chromosomes")
    return [ScoredIndividual(bits, J, fitness(J)) for bits, J in zip(bits_list, scores)]


def evolve(population: Sequence[ScoredIndividual], config: GAConfig,
           rng: np.random.Generator, evaluator: Evaluator,
           mask: Sequence) -> list[ScoredIndividual]:
    """Produce and score the next generation; loci where ``mask`` is 0 stay 0.

    Pairs are drawn by roulette, crossed and mutated until the population is
    refilled.  With elitism the best parent replaces the worst child, which
    makes the best J non-increasing between generations.
    """
    offspring: list[Chromosome] = []
    while len(offspring) < config.population_size:
        p1 = select_roulette(population, rng).chromosome
        p2 = select_roulette(population, rng).chromosome
        c1, c2 = crossover(p1, p2, config.crossover_probability, rng)
        offspring.append(mutate(c1, config.mutation_probability, rng, mask))
        offspring.append(mutate(c2, config.mutation_probability, rng, mask))
    offspring = offspring[:config.population_size]
    scored = _score(offspring, evaluator)
    if config.elitism:
        best_parent = min(population, key=_order_key)
        worst = max(range(len(scored)), key=lambda i: _order_key(scored[i]))
        if _order_key(best_parent) < _order_key(scored[worst]):
            scored[worst] = best_parent
    return scored


def run_ga(config: GAConfig, evaluator: Evaluator,
           mask: Sequence) -> tuple[ScoredIndividual, GAHistory]:
    """Run the full generation loop and return the best individual ever seen.

    ``mask`` has one 0/1 entry per locus, 1 where the bit may be set; its
    length is the chromosome length.  The initial population is uniform over
    the maskable loci.  The loop stops at ``max_generations`` or earlier once
    the best J has stagnated for STAGNATION_WINDOW generations.
    """
    mask = tuple(int(b) for b in mask)
    if not mask or any(b not in (0, 1) for b in mask):
        raise ValueError("mask must be a non-empty 0/1 sequence")
    rng = np.random.default_rng(config.rng_seed)

    initial = [
        tuple(int(b) & m for b, m in zip(rng.integers(0, 2, size=len(mask)), mask))
        for _ in range(config.population_size)
    ]
    population = _score(initial, evaluator)
    history = GAHistory()
    history.record(population)

    best = min(population, key=_order_key)
    stagnant = 0
    for _ in range(config.max_generations):
        population = evolve(population, config, rng, evaluator, mask)
        history.record(population)
        generation_best = min(population, key=_order_key)
        if generation_best.J < best.J - STAGNATION_EPS:
            stagnant = 0
        else:
            stagnant += 1
        if _order_key(generation_best) < _order_key(best):
            best = generation_best
        if stagnant >= STAGNATION_WINDOW:
            break
    return best, history
