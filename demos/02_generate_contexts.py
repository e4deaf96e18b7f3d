"""Show how pattern draws become generation inputs.

Each output slot draws one or two non-overlapping patterns in proportion
to their pool frequency, joins their correct sides with mask tokens into
a template, and either asks a backend to fill the masks (zero-shot style
with a few-shot prompt) or builds a masked finetuning example from an
existing sentence.
"""

from __future__ import annotations

import random

from gecaug import (
    ErrorPattern,
    PatternPool,
    StubGenerator,
    assemble_input,
    build_fewshot_prompt,
    build_finetune_example,
    generate,
    sample_patterns,
    slot_rng,
)

POOL = PatternPool(
    {
        ErrorPattern(("move", "one"), ("move", "from", "one"), 3): 6,
        ErrorPattern(("He", "go", "to"), ("He", "goes", "to"), 3): 4,
        ErrorPattern(("in", "evening"), ("in", "the", "evening"), 3): 2,
        ErrorPattern(("discussed", "about", "the"), ("discussed", "the"), 3): 1,
    },
    n=3,
)

BASE_SEED = 20240


def main() -> None:
    print("== Sampled templates ==")
    requests = []
    for slot in range(6):
        rng = slot_rng(BASE_SEED, slot)
        drawn = sample_patterns(POOL, rng)
        request = assemble_input([p.correct for p in drawn], rng, request_id=str(slot))
        requests.append(request)
        names = " + ".join("/".join(p.correct) for p in drawn)
        print(f"  slot {slot}: {request.template!r}   (patterns: {names})")

    print("\n== Few-shot prompt for slot 0 ==")
    print(build_fewshot_prompt(requests[0]))

    print("\n== Stub backend fills the masks ==")
    backend = StubGenerator(seed=3)
    for res in (generate(request, backend) for request in requests):
        print(f"  slot {res.request_id}: [{res.status}] {res.text}")

    # The same patterns can also be spliced into an existing sentence for
    # mask-infilling finetuning data.
    print("\n== Masked finetuning example ==")
    sentence = "They will have to move from one place to another .".split()
    example = build_finetune_example(sentence, random.Random(11))
    print(f"  input : {example.input}")
    print(f"  spans : {example.masked_spans}")
    tokens = example.input.split(" ")
    print(f"  target: {' '.join(tokens[slice(*example.target_span)])}")


if __name__ == "__main__":
    main()
