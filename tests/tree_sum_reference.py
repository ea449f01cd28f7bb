"""The fan-in tree sum spelled out per entry: the reference for
``schedules.rect.tree_sum_fragment``.

Same signature and same result as the group-op fragment, but every
group's scatter and every level is a list of ``AccCell``/``Send``/
``Drop`` ops per entry and member, run by
``plan_reference.ReferenceProgram`` op by op.  A cell copy is an
``AccCell`` into a fresh key, which gives the same words and values as a
copy, and a sum adds one-word tiles with ``AccCell`` at index 0.  Tests
monkeypatch it into the rect module to run every tree sum both ways.
"""

from plan_reference import AccCell, Drop, Send, add


def tree_sum_fragment(plan, members, addend_keys, entries, width, start_round, ns):
    rounds, holders = 1, []
    for group, keys, group_ns in zip(members, addend_keys, ns):
        rounds, final = _one_group(plan, [int(p) for p in group], keys, entries, width,
                                   start_round, group_ns)
        holders.append(tuple(final[e] for e in range(entries)))
    return rounds, tuple(holders)


def _one_group(plan, members, addend_keys, entries, width, start_round, ns):
    t = len(members)
    width = max(2, width)
    m = -(-t // width)

    # Scatter: member l parcels entry e out to the collector of its chunk.
    for l, src in enumerate(members):
        chunk = l // width
        by_dst = {}
        for e in range(entries):
            key = ("ts", ns, e, l)
            add(plan, start_round, src, AccCell(key, addend_keys[l], e))
            by_dst.setdefault((e * m + chunk) % t, []).append(key)
        for dst_l, keys in sorted(by_dst.items()):
            dst = members[dst_l]
            if dst != src:
                add(plan, start_round, src, Send(dst, tuple(keys)), Drop(tuple(keys)))
        add(plan, start_round, src, Drop((addend_keys[l],)))

    holders = {}
    for e in range(entries):
        holders[e] = []
        for c in range(m):
            dst = members[(e * m + c) % t]
            skey = ("tv", ns, e, dst)
            for l in range(c * width, min((c + 1) * width, t)):
                tkey = ("ts", ns, e, l)
                add(plan, start_round + 1, dst, AccCell(skey, tkey, 0), Drop((tkey,)))
            holders[e].append((dst, skey))

    # A level's AccCells were added before its Sends, so each collector folds
    # what it received before it forwards its sum.
    rounds = 1
    level_round = start_round + 1
    while m > 1:
        for e in range(entries):
            new_holders = []
            for c0 in range(0, len(holders[e]), width):
                col_proc, col_key = holders[e][c0]
                for sender_proc, sender_key in holders[e][c0 + 1 : c0 + width]:
                    add(plan, level_round, sender_proc, Send(col_proc, (sender_key,)),
                             Drop((sender_key,)))
                    add(plan, level_round + 1, col_proc, AccCell(col_key, sender_key, 0),
                             Drop((sender_key,)))
                new_holders.append((col_proc, col_key))
            holders[e] = new_holders
        m = -(-m // width)
        rounds += 1
        level_round += 1

    return rounds, {e: holders[e][0] for e in range(entries)}
