"""Dataset layer: PNM codec, manifest, parallel loader, synthetic generator,
and the loader benchmark."""
