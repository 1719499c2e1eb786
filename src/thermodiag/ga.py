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

Reproducibility: every stochastic draw comes from one sequential generator.
The initial population is one (population x L) block of uniforms, a bit
set where its uniform is below 0.5.  Each generation is then one
(pairs x (4 + 2L)) block: a row holds a pair's two roulette spins, its
crossover decision, its cut uniform u, and one block of L mutation
uniforms per child.  A pair whose decision is below the crossover
probability, with L >= 2, is cut at 1 + floor(u*(L-1)); any other pair is
cut at L, a plain copy.  Every column is drawn whether or not it is used,
so the stream position depends only on the population size and L.  All
children are selected, spliced, flipped and masked at once on one
(population x L) array.  Objective evaluations draw nothing, so the stream
does not depend on the evaluator.
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
    "evolve",
    "run_ga",
]

Chromosome = tuple  # of 0/1 ints
Evaluator = Callable[[list], Sequence[float]]  # chromosomes -> their J values

#: Stop when the best J has not improved by more than this for
#: STAGNATION_WINDOW consecutive generations.
STAGNATION_EPS = 1e-12
STAGNATION_WINDOW = 50

#: Largest population a config accepts.  A generation draws one
#: (population/2 x (4 + 2L)) block of doubles: 83 MB at this size and
#: L = 1040, the chromosome of the bundled cell at the most internal nodes
#: a building file may ask for.
MAX_POPULATION_SIZE = 10_000


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
        if not 2 <= self.population_size <= MAX_POPULATION_SIZE or self.population_size % 2:
            raise ValueError(f"population_size must be even and in 2..{MAX_POPULATION_SIZE}")
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
        # a left-to-right sum: the builtin sum compensates from Python 3.12 on
        self.mean_fitness.append(float(_wheel(population)[-1]) / len(population))
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
    if not wheel[-1] > 0.0:
        raise GAError("every fitness is 0: the roulette wheel has no total")
    return np.searchsorted(wheel, u * wheel[-1], side="right")


def _cut(length: int, crossover_probability: float, decision, u):
    """Crossing point in [1, L-1] of each pair whose decision uniform is below
    the probability, or L for plain copies; the cut uniform ``u`` in [0, 1)
    picks the point, and a chromosome of one locus is never cut."""
    crossing = (decision < crossover_probability) & (length >= 2)
    return np.where(crossing, 1 + np.floor(u * (length - 1)).astype(np.intp), length)


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
    Equal values alone would merge 0.0 and -0.0.  A ValueError, input the
    evaluator rejects (such as an objective that overflows), passes
    through; any other failure becomes a GAError."""
    try:
        scores = [float(J) for J in evaluator(list(chromosomes))]
    except ValueError:
        raise
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

    One block of uniforms holds the generation's draws, laid out as the
    module docstring describes; every pair's parents are then picked,
    spliced, flipped and masked at once.  With elitism the best parent
    replaces the worst child, which makes the best J non-increasing between
    generations.
    """
    length = len(mask)
    pairs = config.population_size // 2
    draws = rng.random((pairs, 4 + 2 * length))
    parents = _spin(_wheel(population), draws[:, :2])
    bits = getattr(population, "bits", None)
    if bits is None:
        bits = _bits([ind.chromosome for ind in population])
    known = getattr(population, "known", {})
    cuts = _cut(length, config.crossover_probability, draws[:, 2], draws[:, 3])
    children = _flip(_splice(bits[parents], cuts), draws[:, 4:].reshape(pairs, 2, length),
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

    initial = (rng.random((config.population_size, len(mask))) < 0.5) & _bits(mask)
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
