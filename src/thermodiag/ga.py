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
consumed in a fixed order per pair of children: one uniform for each of the
two roulette spins, one for the crossover decision, one bounded integer for
the cut point if crossing, then one block of L uniforms per child for
mutation.  A generation keeps this order but groups the uniforms: one call
draws the first pair's three, then each pair draws its cut if crossing and,
in one call, its two mutation blocks and the next pair's three uniforms.  A
uniform is the same drawn alone or in a block, so the stream is unchanged.
All children are then selected, spliced, flipped and masked at once on one
(population x L) array; the one-row operators :func:`select_roulette`,
:func:`crossover` and :func:`mutate` call the same helpers, so each pick
rule and each bit rule is written once.  Objective evaluations draw
nothing, so the stream does not depend on the evaluator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
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
    "rank",
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
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be >= 0")


@dataclass(frozen=True)
class ScoredIndividual:
    chromosome: Chromosome
    J: float  # °C²
    f: float  # 1/(1+J)
    key: tuple = field(init=False, repr=False, compare=False)  # rank(J, chromosome)

    def __post_init__(self):
        object.__setattr__(self, "key", rank(self.J, self.chromosome))


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

    def record(self, population: Sequence[ScoredIndividual]) -> ScoredIndividual:
        """Append the population's entry and return its best individual."""
        best = min(population, key=_order_key)
        self.best_J.append(best.J)
        self.best_fitness.append(best.f)
        self.mean_fitness.append(sum(ind.f for ind in population) / len(population))
        self.best_individual.append(best.chromosome)
        return best


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


def rank(J: float, chromosome: Chromosome) -> tuple:
    """The one order of forcing sets: lower J first, then fewer forced
    nodes, then the lexicographically smallest bit pattern."""
    return (J, sum(chromosome), chromosome)


_order_key = attrgetter("key")


def _wheel(population: Sequence[ScoredIndividual]) -> np.ndarray:
    """Running sums of the fitnesses, in population order."""
    return np.cumsum([ind.f for ind in population])


def _spin(wheel: np.ndarray, u):
    """Index of the roulette pick of each uniform ``u``."""
    return np.searchsorted(wheel, u * wheel[-1], side="right")


def _cut(length: int, crossover_probability: float, u, rng: np.random.Generator) -> int:
    """Crossing point in [1, L-1], or L for plain copies.

    ``u`` is the drawn decision uniform; the cut is drawn only when
    crossing, and a chromosome of one locus is never cut.
    """
    if u < crossover_probability and length >= 2:
        return int(rng.integers(1, length))
    return length


def _splice(parents: np.ndarray, cuts: np.ndarray) -> np.ndarray:
    """Children of parent pairs (..., 2, L): each child keeps its own parent's
    loci before the cut and takes the other parent's from it on."""
    head = np.arange(parents.shape[-1]) < np.asarray(cuts)[..., None, None]
    return np.where(head, parents, parents[..., ::-1, :])


def _flip(bits: np.ndarray, draws: np.ndarray, mutation_probability: float,
          mask: np.ndarray) -> np.ndarray:
    """Flip each bit whose draw is below the probability; masked loci are 0."""
    return (bits ^ (draws < mutation_probability)) & mask


def _bits(chromosomes) -> np.ndarray:
    return np.array(chromosomes, dtype=np.uint8)


def select_roulette(population: Sequence[ScoredIndividual],
                    rng: np.random.Generator) -> ScoredIndividual:
    """Fitness-proportionate selection; consumes exactly one draw."""
    if not population:
        raise GAError("cannot select from an empty population")
    return population[_spin(_wheel(population), rng.random())]


def crossover(p1: Chromosome, p2: Chromosome, crossover_probability: float,
              rng: np.random.Generator) -> tuple[Chromosome, Chromosome]:
    """Single-point crossover with the given probability, else plain copies."""
    if len(p1) != len(p2):
        raise GAError("parents must have equal length")
    cut = _cut(len(p1), crossover_probability, rng.random(), rng)
    c1, c2 = _splice(_bits([p1, p2]), cut).tolist()
    return tuple(c1), tuple(c2)


def mutate(chromosome: Chromosome, mutation_probability: float,
           rng: np.random.Generator, mask: Sequence) -> Chromosome:
    """Flip each maskable bit independently; masked loci stay 0."""
    draws = rng.random(len(chromosome))  # masked loci draw too
    return tuple(_flip(_bits(chromosome), draws, mutation_probability,
                       _bits(mask)).tolist())


class _Generation(list):
    """A scored population that also carries, for the next generation, its
    (population x L) bit rows and every individual built so far, by
    chromosome, so neither is rebuilt from tuples."""

    __slots__ = ("bits", "known")

    def __init__(self, scored, bits: np.ndarray, known: dict):
        super().__init__(scored)
        self.bits = bits
        self.known = known


def _score(chromosomes: list, evaluator: Evaluator, known: dict) -> list[ScoredIndividual]:
    """Score one generation; a chromosome already in ``known`` with the very
    J object the evaluator returned (a memoising evaluator returns the same
    float each time) reuses its individual instead of building a new one.
    Equal values alone would merge 0.0 and -0.0."""
    try:
        scores = [float(J) for J in evaluator(list(chromosomes))]
    except Exception as exc:
        raise GAError(
            f"evaluator failed on a generation of {len(chromosomes)} chromosomes: {exc}") from exc
    if len(scores) != len(chromosomes):
        raise GAError(
            f"evaluator returned {len(scores)} scores for {len(chromosomes)} chromosomes")
    scored = []
    for chromosome, J in zip(chromosomes, scores):
        ind = known.get(chromosome)
        if ind is None or ind.J is not J:
            ind = known[chromosome] = ScoredIndividual(chromosome, J, fitness(J))
        scored.append(ind)
    return scored


def evolve(population: Sequence[ScoredIndividual], config: GAConfig,
           rng: np.random.Generator, evaluator: Evaluator,
           mask: Sequence) -> list[ScoredIndividual]:
    """Produce and score the next generation; loci where ``mask`` is 0 stay 0.

    Each pair's draws are made in stream order (two roulette spins on one
    wheel per generation, the crossover decision and cut, two mutation
    blocks), grouped as the module docstring describes; then every pair's
    parents are picked, spliced, flipped and masked at once.  With elitism
    the best parent replaces the worst child, which makes the best J
    non-increasing between generations.
    """
    length = len(mask)
    pairs = config.population_size // 2
    # row i: pair i's two spins and crossover decision, then its two
    # mutation blocks; one call fills a pair's blocks and the next row's
    # three uniforms, and the slice stops short of them for the last pair
    stride = 3 + 2 * length
    draws = np.empty((pairs, stride))
    flat = draws.reshape(-1)
    rng.random(out=flat[:3])
    cuts = []
    for i in range(pairs):
        cuts.append(_cut(length, config.crossover_probability, flat[i * stride + 2], rng))
        rng.random(out=flat[i * stride + 3:(i + 1) * stride + 3])
    parents = _spin(_wheel(population), draws[:, :2])
    bits = getattr(population, "bits", None)
    if bits is None:
        bits = _bits([ind.chromosome for ind in population])
    known = getattr(population, "known", {})
    children = _flip(_splice(bits[parents], np.array(cuts)),
                     draws[:, 3:].reshape(pairs, 2, length),
                     config.mutation_probability, _bits(mask)).reshape(-1, length)
    scored = _score([tuple(c) for c in children.tolist()], evaluator, known)
    if config.elitism:
        best_parent = min(population, key=_order_key)
        worst = max(range(len(scored)), key=lambda i: scored[i].key)
        if best_parent.key < scored[worst].key:
            scored[worst] = best_parent
            children[worst] = best_parent.chromosome
    return _Generation(scored, children, known)


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

    initial = _bits([rng.integers(0, 2, size=len(mask))
                     for _ in range(config.population_size)]) & _bits(mask)
    known: dict = {}
    population = _Generation(_score([tuple(c) for c in initial.tolist()], evaluator, known),
                             initial, known)
    history = GAHistory()
    best = history.record(population)
    stagnant = 0
    for _ in range(config.max_generations):
        population = evolve(population, config, rng, evaluator, mask)
        generation_best = history.record(population)
        if generation_best.J < best.J - STAGNATION_EPS:
            stagnant = 0
        else:
            stagnant += 1
        if generation_best.key < best.key:
            best = generation_best
        if stagnant >= STAGNATION_WINDOW:
            break
    return best, history
