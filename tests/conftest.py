from alflb.core import RandomSource
from alflb.router import RawScoreMatrix, softmax_affinities


def random_affinities(T: int, E: int, seed: int):
    """Softmax of Gaussian raw scores; generic position, no exact ties."""
    rng = RandomSource(seed, stream=1).generator()
    return softmax_affinities(RawScoreMatrix(rng.standard_normal((T, E))))
