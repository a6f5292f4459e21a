package serve

// PaperConfig exposes the Table 2 pairing to the external pipeline tests.
var PaperConfig = paperConfig
