"""Dataset layer: PNM codec, manifest, synthetic generator, and the parallel
loader with its timing table."""
