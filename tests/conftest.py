import random

from hypothesis import strategies as st

from randfca import FormalContext


def build_context(g: int, m: int, rows: list[int]) -> FormalContext:
    return FormalContext.from_bit_rows(
        tuple(f"g{i}" for i in range(1, g + 1)),
        tuple(f"m{j}" for j in range(1, m + 1)),
        rows,
    )


def random_context(rng: random.Random, max_objects: int = 8, max_attributes: int = 8) -> FormalContext:
    g = rng.randint(0, max_objects)
    m = rng.randint(0, max_attributes)
    rows = [rng.getrandbits(m) if m else 0 for _ in range(g)]
    return build_context(g, m, rows)


@st.composite
def contexts(
    draw,
    max_objects: int = 8,
    max_attributes: int = 8,
    min_objects: int = 0,
    min_attributes: int = 0,
) -> FormalContext:
    g = draw(st.integers(min_objects, max_objects))
    m = draw(st.integers(min_attributes, max_attributes))
    rows = [draw(st.integers(0, (1 << m) - 1)) for _ in range(g)]
    return build_context(g, m, rows)
