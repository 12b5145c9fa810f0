module rdmaagreement/bench

go 1.24

require rdmaagreement v0.0.0

replace rdmaagreement => ../
