"""Fixed-chunk execution for grid scans.

Chunking bounds the size of the point x atom temporaries of the potential
scans; chunk boundaries are fixed and results come back in chunk order.
"""


def run_chunked(fn, n_items: int, chunk: int):
    """Evaluate fn(lo, hi) over [0, n_items) in fixed chunks, in order.

    Returns the list of per-chunk results in chunk order.
    """
    return [fn(lo, min(lo + chunk, n_items)) for lo in range(0, n_items, chunk)]
