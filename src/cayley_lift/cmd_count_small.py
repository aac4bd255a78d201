"""The count-small verb: the number of genuine small representations."""

from . import coherent


def run(args, rank, chis):
    n = coherent.count_small(args.family, rank)
    payload = {"family": args.family, "count": n}
    if rank is not None:
        payload["lie_rank"] = rank
    return payload, [str(n)], True
