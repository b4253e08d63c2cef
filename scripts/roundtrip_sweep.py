"""Generator round-trip match rates across window sizes n.

Builds the marked binary model once, then decodes tower names of 40 seeded
flow points per n; below the marker horizon the decoder correctly refuses.
A point matches when its decoded name, aligned at the chain coordinate of
the name's first P letter, holds the true central base block at the
point's own coordinate (`round_trip`'s aligned `match`).
"""

from suspshift.generator import GeneratorModel, NoMarkersFound, round_trip
from suspshift.instances import build_marked_binary_instance


def main():
    model = GeneratorModel(build_marked_binary_instance())
    print(f"K={model.K} M={model.M} sweep_constant={model.m_condition}")
    print("n,matches,refusals,points")
    for n in (10, 20, 30, 40, 50, 60):
        matches = refusals = 0
        for seed in range(40):
            try:
                _, _, match = round_trip(model, model.sample_point(seed), n)
                matches += int(match)
            except NoMarkersFound:
                refusals += 1
        print(f"{n},{matches},{refusals},40")


if __name__ == "__main__":
    main()
