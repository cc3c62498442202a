#!/usr/bin/env python3
"""Regenerate the shipped fixture files from the built-in scenarios."""

from pathlib import Path

from oitkit.io import model_to_json, to_json_text
from oitkit.scenarios import chain3_models, kalman_scalar_scenario, network_model, penguin_model

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def main() -> None:
    FIXTURES.mkdir(exist_ok=True)
    (FIXTURES / "penguin.json").write_text(
        to_json_text(model_to_json(penguin_model())) + "\n"
    )
    (FIXTURES / "chain3.json").write_text(
        to_json_text({"links": [model_to_json(link) for link in chain3_models()]}) + "\n"
    )
    (FIXTURES / "kalman_scalar.json").write_text(
        to_json_text(kalman_scalar_scenario()) + "\n"
    )
    (FIXTURES / "network4.json").write_text(
        to_json_text(model_to_json(network_model(4))) + "\n"
    )
    for name in ("penguin", "chain3", "kalman_scalar", "network4"):
        print(f"wrote fixtures/{name}.json")


if __name__ == "__main__":
    main()
